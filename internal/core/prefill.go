package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// group is one prefill scheduling unit of Algorithm 1: up to MAX_GPSIZE
// same-model jobs served back to back to amortize a model switch.
type group struct {
	mid  model.ID
	reqs []*Request
	size int // cumulative admissions — never decremented (Algorithm 1 note)

	// rank is the priority rank shared by every member (joins under overload
	// control require matching rank, so a group is orderable as a unit);
	// deadline is the earliest first-token deadline among members. Together
	// they give the degraded-mode queue order: rank first, then slack —
	// which, within one rank and SLO class, is FCFS.
	rank     int
	deadline sim.Time
}

// prefillInstance runs Algorithm 1's execution event: one request at a time
// (batch size 1, §4.2) from the front group of its job queue, preemptively
// auto-scaling when the front group's model differs from the resident one.
type prefillInstance struct {
	sys *System
	eng *engine.Engine

	queue      []*group
	spare      []*group // served groups, reused LIFO by newGroup
	running    bool
	dead       bool
	inflight   *Request // job currently prefilling (crash recovery)
	feed       tokenFeed
	tier       int    // the instance's device tier in the prefix cache
	switchDone func() // p.switched, the front group's switch callback
}

func newPrefillInstance(s *System, e *engine.Engine) *prefillInstance {
	p := &prefillInstance{sys: s, eng: e}
	p.feed.dev = s.fleet.Ref(e.Name)
	p.switchDone = p.switched
	return p
}

// tryJoinGroup implements Algorithm 1 lines 4–8: admit r into an existing
// group of its model that has not reached MAX_GPSIZE (cumulative size, so
// FCFS order is not violated by endless joins).
func (p *prefillInstance) tryJoinGroup(r *Request) bool {
	ordered := p.sys.cfg.Overload != nil
	for _, g := range p.queue {
		if g.mid != r.mid || g.size >= p.sys.cfg.MaxGroupSize {
			continue
		}
		// Under overload control groups are ordered by (rank, deadline), so
		// they must stay rank-homogeneous: a low-tier request joining a
		// high-tier group would ride its priority.
		if ordered && g.rank != r.Priority.Rank() {
			continue
		}
		g.reqs = append(g.reqs, r)
		g.size++
		if g.deadline == 0 || r.Deadline < g.deadline {
			g.deadline = r.Deadline
		}
		p.wake()
		return true
	}
	return false
}

// newGroup appends a fresh group for r (Algorithm 1 line 13), reusing a
// served group and its request slice when there is one.
func (p *prefillInstance) newGroup(r *Request) {
	var g *group
	if n := len(p.spare); n > 0 {
		g = p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
	} else {
		g = &group{}
	}
	g.mid, g.reqs, g.size = r.mid, append(g.reqs, r), 1
	g.rank, g.deadline = r.Priority.Rank(), r.Deadline
	p.queue = append(p.queue, g)
	p.wake()
}

// popFront removes the front group from the queue and keeps it for reuse.
// The queue and the group's slice shift down in place rather than
// reslicing, so both keep their arrays.
func (p *prefillInstance) popFront() {
	g := p.queue[0]
	n := copy(p.queue, p.queue[1:])
	p.queue[n] = nil
	p.queue = p.queue[:n]
	clear(g.reqs[:cap(g.reqs)])
	g.reqs = g.reqs[:0]
	p.spare = append(p.spare, g)
}

// popReq removes and returns g's first request.
func (g *group) popReq() *Request {
	r := g.reqs[0]
	n := copy(g.reqs, g.reqs[1:])
	g.reqs[n] = nil
	g.reqs = g.reqs[:n]
	return r
}

// load estimates the total time to finish all pending groups: model
// switches plus per-request prefill execution (Appendix A.2).
func (p *prefillInstance) load() time.Duration {
	var total time.Duration
	prev := p.eng.CurrentID()
	for _, g := range p.queue {
		m := g.mid
		if g.mid != prev {
			total += p.eng.CostFor(m).Switch()
			prev = g.mid
		}
		for _, r := range g.reqs {
			total += p.eng.PrefillEstimate(m, r.InputTokens)
		}
	}
	return total
}

func (p *prefillInstance) wake() {
	if p.running || p.dead {
		return
	}
	p.running = true
	p.step()
}

// orderQueue re-sorts pending groups for overload control: higher priority
// rank first, then earliest first-token deadline — deadline order within one
// rank and SLO class is arrival order, so this degrades to grouped FCFS with
// slack tiebreaks. A no-op (pure FCFS, Algorithm 1) when overload control is
// off.
func (p *prefillInstance) orderQueue() {
	if p.sys.cfg.Overload == nil || len(p.queue) < 2 {
		return
	}
	sort.SliceStable(p.queue, func(i, j int) bool {
		if p.queue[i].rank != p.queue[j].rank {
			return p.queue[i].rank > p.queue[j].rank
		}
		return p.queue[i].deadline < p.queue[j].deadline
	})
}

// step serves the next job from the front group (Algorithm 1 line 15).
func (p *prefillInstance) step() {
	if p.dead {
		p.running = false
		return
	}
	p.inflight = nil
	p.orderQueue()
	for len(p.queue) > 0 {
		front := p.queue[0]
		// Terminal requests (aborted clients, rejected work) are skipped, not
		// served; the eager queue sweep usually removed them already.
		for len(front.reqs) > 0 && front.reqs[0].terminal() {
			front.popReq()
		}
		if len(front.reqs) == 0 {
			p.popFront()
			continue
		}
		break
	}
	if len(p.queue) == 0 {
		p.running = false
		return
	}
	g := p.queue[0]
	m := g.mid
	if cur := p.eng.Current(); cur == nil || p.eng.CurrentID() != m {
		// Preemptive scale-up for the front group. The next group's model is
		// prefetched only after the on-demand load completes, so the
		// prefetch overlaps this group's execution instead of delaying the
		// load on the DMA engine. The engine emits the switch events and the
		// stage breakdown; we attribute the stall to the waiting group.
		p.eng.SwitchTo(m, p.switchDone)
		if p.sys.obs != nil {
			p.sys.obs.SwitchVictims(p.eng.Name, p.sys.requestIDs(g.reqs))
		}
		if j := p.sys.dec; j != nil {
			// The front group forced the switch; the journal still shows what
			// else was queued (the groups the scale-up chose *not* to serve).
			from := ""
			if cur != nil {
				from = cur.Name
			}
			jot := &p.sys.jot
			jot.Reset()
			for i, qg := range p.queue {
				jot.Candidate(decision.Candidate{
					Name:   p.sys.modelName(qg.mid),
					Chosen: i == 0,
					Terms: jot.Terms(
						decision.Term{Name: "rank", Value: float64(qg.rank)},
						decision.NsTerm("deadline", qg.deadline),
						decision.Term{Name: "group_size", Value: float64(len(qg.reqs))},
					),
				})
			}
			j.Record(decision.Record{At: p.eng.Sim().Now(), Kind: decision.KindSwitch,
				Instance: p.eng.Name, Model: p.sys.modelName(m), Outcome: p.sys.modelName(m),
				Reason:   p.sys.reason("prefill front group (from ", from, ")"),
				Requests: p.sys.requestIDs(g.reqs),
				Inputs: jot.Terms(
					decision.NsTerm("switch_cost", p.eng.CostFor(m).Switch()),
					decision.Term{Name: "queued_groups", Value: float64(len(p.queue))},
				),
				Candidates: jot.Candidates(),
			})
		}
		return
	}
	r := g.popReq()
	p.inflight = r // owned by this instance until completion (crash recovery)
	p.runPrefill(r, 0)
}

// switched serves the front group once its model switch lands, after
// starting the next group's prefetch.
func (p *prefillInstance) switched() {
	p.prefetchNext(1)
	p.step()
}

// prefetchNext prefetches the model of queue[idx] if it differs from the
// front group's model.
func (p *prefillInstance) prefetchNext(idx int) {
	if idx >= len(p.queue) {
		return
	}
	next := p.queue[idx].mid
	if next != p.queue[0].mid {
		p.eng.StartPrefetch(next)
	}
}

// runPrefill executes one prefill job: allocate the sequence's GPU KV,
// consult the global prefix cache and skip recomputing a matched prefix
// (charging the tier-dependent copy instead), run the forward pass over the
// remainder, emit the first token, insert the computed prefix for later
// turns, start the KV swap-out to the unified CPU cache, and hand the
// request to the decoding partition.
func (p *prefillInstance) runPrefill(r *Request, attempt int) {
	if p.dead {
		return
	}
	// A pin can survive from an attempt interrupted by a crash; every fresh
	// attempt starts unpinned.
	p.sys.releasePrefix(r)
	if r.terminal() {
		p.inflight = nil
		p.step()
		return
	}
	p.inflight = r
	// Recovered requests recompute their whole context (prompt plus tokens
	// already delivered before the crash).
	ctx := r.InputTokens + r.Generated()
	shape := r.Model.ShardKVShape(p.sys.cfg.TP)
	seq, err := p.eng.KV().NewSequence(r.ID, shape, ctx+1)
	if err != nil {
		if errors.Is(err, memory.ErrOutOfMemory) && attempt < 1000 {
			// GPU KV is transiently full of still-offloading sequences; give
			// back prefix device copies first (they are accelerators, not
			// required state), then retry shortly.
			if p.sys.prefix != nil {
				p.sys.prefix.EvictDeviceBytes(p.eng.Name,
					shape.BytesPerToken()*int64(ctx+1))
			}
			p.eng.Sim().After(10*time.Millisecond, func() { p.runPrefill(r, attempt+1) })
			return
		}
		panic("core: prefill KV allocation failed: " + err.Error())
	}
	r.Seq = seq
	r.prefillStart = p.eng.Sim().Now()
	p.sys.obs.PrefillStart(p.eng.Name, r.ID, r.tl, r.prefillStart)
	p.prefetchNextIfGroupEnding()

	// Prefix lookup happens after the sequence allocation succeeded so OOM
	// retries never stack pins. The hit stays pinned until the forward pass
	// completes (or the request dies), so eviction cannot reclaim blocks the
	// reuse copy still reads.
	skip := 0
	if p.sys.prefix != nil && len(r.Segments) > 0 {
		if hit := p.sys.prefix.Acquire(p.eng.Name, r.Model.Name, shape,
			r.promptHashes(p.sys.prefix.BlockTokens()), r.InputTokens, r.prefillStart); hit != nil {
			r.prefixHit = hit
			skip = hit.MatchedTokens
		}
	}
	r.PrefixMatched = skip

	done := func() {
		if p.dead {
			return // the request was re-dispatched by crash recovery
		}
		if r.terminal() {
			// Aborted mid-prefill: its sequence was already released.
			p.sys.releasePrefix(r)
			p.inflight = nil
			p.step()
			return
		}
		now := p.eng.Sim().Now()
		p.sys.obs.PrefillDone(p.eng.Name, r.ID, r.tl, now)
		r.prefillEnd = now
		if p.sys.prefix != nil && len(r.Segments) > 0 {
			// The full prompt KV now exists on this instance: index it for
			// later turns. The host copy piggybacks on the P→C offload below,
			// so insertion charges no extra transfer. A miss additionally
			// records the recompute interval for SLO miss attribution.
			p.sys.prefix.Insert(r.Model.Name, shape, r.promptHashes(p.sys.prefix.BlockTokens()), r.InputTokens, now)
			if r.prefixHit == nil {
				p.sys.obs.RequestSpan(p.eng.Name, r.ID, "prefix-recompute", "cold prefix",
					r.prefillStart, now)
			}
		}
		p.sys.releasePrefix(r)
		if r.Generated() == 0 {
			p.feed.record(p.sys, p.eng.Name, r, now) // token 0
			p.sys.obs.Token(r.tl, now)
			p.feed.flush(p.sys, r.mid)
		}
		if r.RemainingTokens() <= 0 {
			// Nothing to decode: the request is complete.
			p.inflight = nil
			if err := p.eng.KV().Free(seq); err != nil {
				panic("core: free after single-token request: " + err.Error())
			}
			p.sys.finishRequest(r)
			p.step()
			return
		}
		// Offload the prefilled KV (P→C in Fig. 10) and disaggregate. The
		// request stays owned (p.inflight) until the decode dispatch so a
		// crash during the transfer wait orphans it for recovery instead of
		// stranding it between partitions.
		p.handoff(r, seq, now)
	}
	if skip > 0 {
		// Materialize the matched prefix into the fresh sequence: host-tier
		// blocks cross PCIe, device-resident blocks are an on-device copy.
		// TTFT reflects the skip — the forward pass covers only the tail.
		hit := r.prefixHit
		copyStart := r.prefillStart
		p.eng.ReusePrefix(r.ID, hit.HostBytes, hit.DeviceBytes, func() {
			if p.dead {
				return
			}
			if r.terminal() {
				p.sys.releasePrefix(r)
				p.inflight = nil
				p.step()
				return
			}
			if p.sys.obs != nil { // Sprintf allocates even with tracing off
				p.sys.obs.RequestSpan(p.eng.Name, r.ID, "prefix-reuse",
					fmt.Sprintf("%d tokens (%d device)", skip, hit.DeviceTokens),
					copyStart, p.eng.Sim().Now())
			}
			p.eng.PrefillFor(r.ID, ctx-skip, done)
		})
		return
	}
	p.eng.PrefillFor(r.ID, ctx, done)
}

// handoff offloads the prefilled sequence to the unified CPU cache and
// dispatches the request to the decoding partition. A full CPU cache (deep
// overload backpressure) retries: the prefill instance stalls rather than
// dropping KV, and host capacity recycles as decoding completes requests.
func (p *prefillInstance) handoff(r *Request, seq *kvcache.Sequence, prefillEnd sim.Time) {
	if p.dead {
		return
	}
	if r.terminal() {
		p.inflight = nil
		p.step()
		return
	}
	if _, err := p.eng.KV().SwapOut(seq); err != nil {
		if errors.Is(err, memory.ErrOutOfMemory) {
			p.eng.Sim().After(50*time.Millisecond, func() { p.handoff(r, seq, prefillEnd) })
			return
		}
		panic("core: prefill swap-out failed: " + err.Error())
	}
	if p.eng.Options().FineGrainedSync {
		p.inflight = nil
		p.sys.dispatchDecode(r)
		p.step()
		return
	}
	// Blocking path: the handoff waits for the full transfer; the exposed
	// wait is §5.3's synchronization cost, attributed to the last switch.
	// A crash during the wait leaves the request to orphan recovery.
	seq.LastTransfer().OnComplete(func() {
		if p.dead {
			return
		}
		now := p.eng.Sim().Now()
		seq.AddTransferWait(now - prefillEnd)
		p.sys.obs.SwitchStage(p.eng.Name, "kv-sync", prefillEnd, now)
		p.inflight = nil
		p.sys.dispatchDecode(r)
	})
	seq.LastTransfer().OnComplete(p.step)
}

// prefetchNextIfGroupEnding overlaps the next group's weight load with the
// tail of the current group's execution.
func (p *prefillInstance) prefetchNextIfGroupEnding() {
	if len(p.queue) > 0 && len(p.queue[0].reqs) == 0 {
		p.prefetchNext(1)
	}
}
