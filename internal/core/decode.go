package core

import (
	"errors"
	"math"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/gpu"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
)

// dbatch is one decoding batch: same-model requests decoded together under
// a per-round time quota (Algorithm 2).
type dbatch struct {
	mid     model.ID
	reqs    []*Request
	quota   time.Duration
	lastRun sim.Time // most recent turn start (KV eviction LRU)
}

// hasGPUResidentKV reports whether any of the batch's sequences hold GPU KV.
func (b *dbatch) hasGPUResidentKV() bool {
	for _, r := range b.reqs {
		if r.Seq != nil {
			switch r.Seq.State() {
			case kvcache.StateGPU, kvcache.StateSwappingIn:
				return true
			}
		}
	}
	return false
}

func (b *dbatch) contextTokens() int64 {
	var t int64
	for _, r := range b.reqs {
		t += r.ContextTokens()
	}
	return t
}

func (b *dbatch) projectedTokens() int64 {
	var t int64
	for _, r := range b.reqs {
		t += r.ProjectedTokens()
	}
	return t
}

// decodeInstance implements the batched weighted round-robin decoding
// scheduler of §4.3: a rotating work list of batches, rounds that assign
// Eq. 2 quotas, and turns that decode each batch for its quota, preemptively
// auto-scaling between models and exploiting the slack earned by early
// tokens (buffered output, Fig. 3).
type decodeInstance struct {
	sys *System
	eng *engine.Engine
	idx int // position among the system's decode instances

	workList []*dbatch
	spare    []*dbatch // reorder's output buffer, the previous work list's array
	pending  []*Request
	running  bool
	dead     bool

	resident *dbatch // batch whose sequences are (partially) GPU-resident
	turnIdx  int
	current  *dbatch // batch executing the current turn (nil between turns)

	// Round parameters (Eqs. 2–3), kept so batches admitted mid-round can
	// receive consistent quotas, and the round's t_k, d_k and q_k, refilled
	// in place by each multi-model round.
	round  eq2Round
	steps  []float64
	tbts   []float64
	quotas []float64

	batchLimits []int64 // indexed by model id; 0 until first derived

	// Turn state. An instance prepares, switches to and steps one turn at a
	// time, so the turn's callbacks are methods bound once in
	// newDecodeInstance (switchDone, syncDone, readyDone, stepNext) that
	// read the turn from these fields: turn is its batch, turnEnd the end
	// of its quota, pushed back by the waits that do not consume it, and
	// stepped whether it has made a decoding step. outgoing and incoming
	// hold the swap events of its preparation; a transfer wait started at
	// waitStart, and syncOut says a blocking sync waits on outgoing (else
	// on incoming). waits is the free list of eventWait records.
	turn       *dbatch
	turnEnd    sim.Time
	stepped    bool
	outgoing   []gpu.Event
	incoming   []gpu.Event
	waitStart  sim.Time
	syncOut    bool
	waits      []*eventWait
	switchDone func() // d.switched
	syncDone   func() // d.synced
	readyDone  func() // d.readied
	stepNext   func() // d.stepLoop

	// Decode run state (DESIGN.md §6, decode runs). A run is back-to-back
	// steps over one step set, runReqs, submitted as one compute op. At most
	// one run is in flight per instance and a dead instance never steps
	// again, so stepLoop, settleStep and finishRun refill these buffers in
	// place and the run's completion is finishRun, bound once as runDone.
	// A run belongs to the turn's batch and ends by the turn's end.
	// run is the plan of a run of more than one step (zero for a one-step
	// run), whose boundaries the system's settler settles: runSteps steps,
	// of which step runStep is in flight, over stepCtx context tokens since
	// stepStart. runFill[c] counts the sequences that take a new KV block at
	// each step i with i mod block = c (see planRun).
	ready     []*Request
	inflight  []gpu.Event // swap-in events a step with no ready request waits on
	waiting   []*Request  // their requests
	runReqs   []*Request  // requests each step of the run produces a token for
	run       gpu.Run
	runSteps  int
	runStep   int
	runFill   []int
	stepCtx   int64
	stepStart sim.Time     // for a one-step run, its submission
	stepTLs   []obs.Handle // the step set's timelines, for the collector's token batch
	feed      tokenFeed
	runDone   func()
	inSettler bool // in the settler's heap (see runSettler)
}

// dbgTurn is a test hook for turn-event tracing.
var dbgTurn = func(*decodeInstance, string, *dbatch) {}

// maxRunSteps caps a decode run's length: a test hook that checks runs
// against the one-step runs they coalesce.
var maxRunSteps = math.MaxInt

func newDecodeInstance(s *System, e *engine.Engine) *decodeInstance {
	d := &decodeInstance{sys: s, eng: e, idx: len(s.decodes)}
	d.feed.dev = s.fleet.Ref(e.Name)
	d.runDone = d.finishRun
	d.switchDone, d.syncDone, d.readyDone, d.stepNext = d.switched, d.synced, d.readied, d.stepLoop
	return d
}

// load is the Algorithm 2 dispatch load: work-list size (plus not-yet-
// admitted requests).
func (d *decodeInstance) load() int { return len(d.workList) + len(d.pending) }

// batchLimit returns the KV-capacity-derived maximum projected tokens for a
// batch of the model (Algorithm 2 line 2).
func (d *decodeInstance) batchLimit(id model.ID) int64 {
	if int(id) < len(d.batchLimits) && d.batchLimits[id] != 0 {
		return d.batchLimits[id]
	}
	d.batchLimits = model.Grow(d.batchLimits, id)
	shape := d.sys.ids.Model(id).ShardKVShape(d.sys.cfg.TP)
	class, err := d.eng.KV().GPUCache.RegisterShape(shape)
	if err != nil {
		panic("core: register shape: " + err.Error())
	}
	limit := int64(float64(d.eng.KV().GPUCache.MaxTokens(class)) * kvHeadroom)
	d.batchLimits[id] = limit
	return limit
}

// hasRoomInModelBatch reports whether an open batch of r's model with KV
// room exists on this instance (used to prefer co-locating same-model
// requests across the pool).
func (d *decodeInstance) hasRoomInModelBatch(r *Request) bool {
	limit := d.batchLimit(r.mid)
	for _, b := range d.workList {
		if b.mid == r.mid && b.projectedTokens()+r.ProjectedTokens() <= limit {
			return true
		}
	}
	for _, p := range d.pending {
		if p.mid == r.mid {
			return true
		}
	}
	return false
}

// enqueue admits a freshly prefilled request. If the currently executing
// batch serves the same model and has room, the request joins it
// immediately (continuous batching within the turn); otherwise it waits for
// the next round's admission.
func (d *decodeInstance) enqueue(r *Request) {
	if r.terminal() {
		return
	}
	if d.dead {
		// Crash recovery window: route elsewhere.
		d.sys.dispatchDecode(r)
		return
	}
	if d.current != nil && d.current.mid == r.mid &&
		d.current.projectedTokens()+r.ProjectedTokens() <= d.batchLimit(r.mid) {
		d.cut() // the next step must see the new member
		d.current.reqs = append(d.current.reqs, r)
		d.startSwapIn(r)
		return
	}
	d.pending = append(d.pending, r)
	d.wake()
}

func (d *decodeInstance) wake() {
	if d.running || d.dead {
		return
	}
	d.running = true
	d.startRound()
}

// admitPending folds pending requests into the work list: join an existing
// same-model batch with room, else open a new batch (FCFS).
func (d *decodeInstance) admitPending() {
	for _, r := range d.pending {
		if r.terminal() {
			continue
		}
		limit := d.batchLimit(r.mid)
		placed := false
		for _, b := range d.workList {
			if b.mid == r.mid && b.projectedTokens()+r.ProjectedTokens() <= limit {
				b.reqs = append(b.reqs, r)
				placed = true
				break
			}
		}
		if !placed {
			d.workList = append(d.workList, &dbatch{mid: r.mid, reqs: []*Request{r}})
		}
	}
	d.pending = d.pending[:0]
}

// firstOfModel reports whether workList[i] is the first batch of its model
// in the work list. Work lists are short, so the scan beats a set.
func (d *decodeInstance) firstOfModel(i int) bool {
	m := d.workList[i].mid
	for _, b := range d.workList[:i] {
		if b.mid == m {
			return false
		}
	}
	return true
}

// reorder groups same-model batches adjacently, preserving first-occurrence
// order (Algorithm 2 line 6). The old work list's array becomes the next
// call's output buffer.
func (d *decodeInstance) reorder() {
	out := d.spare[:0]
	for i, b := range d.workList {
		if !d.firstOfModel(i) {
			continue
		}
		out = append(out, b)
		for _, b2 := range d.workList[i+1:] {
			if b2.mid == b.mid {
				out = append(out, b2)
			}
		}
	}
	clear(d.workList)
	d.spare, d.workList = d.workList[:0], out
}

// computeQuotas assigns Eq. 2 quotas with the Eq. 3 attainment bound.
func (d *decodeInstance) computeQuotas() {
	single := true
	for _, b := range d.workList {
		single = single && b.mid == d.workList[0].mid
	}
	if single || d.sys.cfg.FixedQuota {
		// No switching inside a single-model round: decode each batch up to
		// QMAX, then re-round to admit arrivals. FixedQuota gives every
		// round that flat turn.
		d.round = eq2Round{alpha: 0.5}
		for _, b := range d.workList {
			b.quota = d.sys.cfg.QMax
		}
		return
	}
	// c is the round's total auto-scaling overhead (Eq. 2): the effective
	// weight-switch cost per distinct model plus each batch's KV cache
	// swap-out + swap-in transfer time — a turn must amortize bringing its
	// batch's KV across PCIe in both directions. Switch costs are summed in
	// work-list order, at each model's first occurrence: in any other order
	// (a map's, say) the float sum's last ulp, and so a quota clamped at
	// QMAX, could differ between runs.
	var c float64
	for i, b := range d.workList {
		if d.firstOfModel(i) {
			c += d.eng.EffectiveSwitchCost(b.mid).Seconds()
		}
	}
	for _, b := range d.workList {
		c += d.kvSwapCost(b).Seconds()
	}
	d.steps, d.tbts = d.steps[:0], d.tbts[:0]
	for _, b := range d.workList {
		d.steps = append(d.steps, d.eng.DecodeStepEstimate(b.mid, b.contextTokens()).Seconds())
		d.tbts = append(d.tbts, d.sys.sloFor(b.mid).TBT.Seconds())
	}
	d.quotas, d.round = eq2Quotas(d.quotas[:0], c, d.sys.cfg.QMax.Seconds(), d.tbts, d.steps)
	for i, b := range d.workList {
		b.quota = d.quotaFor(d.quotas[i], d.steps[i], b)
	}
}

// prefetchHideFloor returns the minimum turn length that lets the rotation
// hide the next model's prefetch: the largest Eq. 4 weight-load time among
// the round's other models. Shorter turns would stall every switch on the
// still-streaming prefetch, defeating the cheap effective switch cost the
// quota formula assumes (§5.2: "the time slice for each turn often
// completely hides the prefetching overhead").
func (d *decodeInstance) prefetchHideFloor(cur model.ID) float64 {
	var worst time.Duration
	for i, b := range d.workList {
		if b.mid == cur || !d.firstOfModel(i) {
			continue
		}
		m := b.mid
		if d.eng.Options().Colocate && d.eng.IsResident(m) {
			continue // resident: nothing to hide
		}
		if l := d.eng.CostFor(m).Switch(); l > worst {
			worst = l
		}
	}
	return worst.Seconds() * 1.05
}

// kvSwapCost estimates the PCIe time to move a batch's KV cache out and
// back in across a preemption cycle.
func (d *decodeInstance) kvSwapCost(b *dbatch) time.Duration {
	bytes := d.sys.ids.Model(b.mid).ShardKVShape(d.sys.cfg.TP).BytesPerToken() * b.contextTokens()
	return 2 * d.eng.CostFor(b.mid).Prof.PCIeCopy(bytes)
}

// quotaFor clamps batch b's Eq. 2 quota q, given its decode step, both in
// seconds. Two clamps keep turns productive: a turn always fits at least one
// decoding step, and it must amortize its own preemption cost (KV swap both
// ways plus the model switch) at a healthy duty ratio — Eq. 2 alone can
// produce arbitrarily small quotas when the α = 0.5 floor binds with small c,
// which would let transfer overhead dominate the round.
func (d *decodeInstance) quotaFor(q, step float64, b *dbatch) time.Duration {
	if q < step {
		q = step
	}
	overhead := d.kvSwapCost(b).Seconds() + d.eng.EffectiveSwitchCost(b.mid).Seconds()
	if floor := 5 * overhead; q < floor {
		q = floor
	}
	if floor := d.prefetchHideFloor(b.mid); q < floor {
		q = floor
	}
	if max := d.sys.cfg.QMax.Seconds(); q > max {
		q = max
	}
	return time.Duration(q * float64(time.Second))
}

// startRound begins a new round (Algorithm 2 lines 5–8).
func (d *decodeInstance) startRound() {
	if d.dead {
		d.running = false
		return
	}
	// Drop exhausted batches.
	kept := d.workList[:0]
	for _, b := range d.workList {
		if len(b.reqs) > 0 {
			kept = append(kept, b)
		}
	}
	d.workList = kept
	d.admitPending()
	if len(d.workList) == 0 {
		d.running = false
		return
	}
	d.reorder()
	d.computeQuotas()
	d.turnIdx = 0
	d.runTurn()
}

// admitMidRound folds pending requests in at a turn boundary: same-model
// requests join an existing batch with room; new models open batches
// appended after the current turn index so they are served this round,
// with Eq. 2 quotas from the round's parameters (a flat QMAX turn under
// FixedQuota).
func (d *decodeInstance) admitMidRound() {
	if len(d.pending) == 0 {
		return
	}
	for _, r := range d.pending {
		if r.terminal() {
			continue
		}
		limit := d.batchLimit(r.mid)
		placed := false
		for _, b := range d.workList {
			if b.mid == r.mid && b.projectedTokens()+r.ProjectedTokens() <= limit {
				b.reqs = append(b.reqs, r)
				placed = true
				break
			}
		}
		if !placed {
			nb := &dbatch{mid: r.mid, reqs: []*Request{r}}
			if d.sys.cfg.FixedQuota || d.round.alpha <= d.round.sumInv {
				nb.quota = d.sys.cfg.QMax
			} else {
				step := d.eng.DecodeStepEstimate(r.mid, nb.contextTokens()).Seconds()
				nb.quota = d.quotaFor(d.round.quota(d.sys.sloFor(r.mid).TBT.Seconds(), step), step, nb)
			}
			d.workList = append(d.workList, nb)
		}
	}
	d.pending = d.pending[:0]
}

// runTurn prepares and executes the turn for workList[turnIdx].
func (d *decodeInstance) runTurn() {
	if d.dead {
		d.running = false
		return
	}
	d.admitMidRound()
	if d.turnIdx >= len(d.workList) {
		d.startRound()
		return
	}
	b := d.workList[d.turnIdx]
	if len(b.reqs) == 0 {
		d.turnIdx++
		d.runTurn()
		return
	}

	d.outgoing = d.outgoing[:0]
	if d.resident != nil && d.resident != b {
		d.swapOutBatch(d.resident)
		d.resident = nil
	}
	d.turn = b
	dbgTurn(d, "turn-prep", b)
	if !d.eng.Options().FineGrainedSync && len(d.outgoing) > 0 {
		// Blocking path: drain all outgoing transfers before touching the
		// engine (the naive synchronization of §3.2).
		d.waitStart, d.syncOut = d.eng.Sim().Now(), true
		d.wait(d.outgoing, len(d.outgoing), d.syncDone)
		return
	}
	d.proceed()
}

// proceed starts the turn's batch on the engine: it switches model first
// when the batch's is not current.
func (d *decodeInstance) proceed() {
	if d.dead {
		d.running = false
		return
	}
	b := d.turn
	d.resident = b
	b.lastRun = d.eng.Sim().Now()
	if d.sys.obs != nil {
		d.sys.obs.TurnStart(d.eng.Name, b.mid, b.lastRun, b.quota, d.sys.requestTLs(b.reqs))
	}
	m := b.mid
	if cur := d.eng.Current(); cur == nil || d.eng.CurrentID() != m {
		d.eng.SwitchTo(m, d.switchDone)
		// The batch stalls until the scale-up completes: it is the
		// switch's victim set.
		if d.sys.obs != nil {
			d.sys.obs.SwitchVictims(d.eng.Name, d.sys.requestIDs(b.reqs))
		}
		if j := d.sys.dec; j != nil {
			from := ""
			if cur != nil {
				from = cur.Name
			}
			jot := &d.sys.jot
			jot.Reset()
			for i, wb := range d.workList {
				jot.Candidate(decision.Candidate{
					Name:   d.sys.modelName(wb.mid),
					Chosen: i == d.turnIdx,
					Terms: jot.Terms(
						decision.NsTerm("quota", wb.quota),
						decision.NsTerm("last_run", wb.lastRun),
						decision.Term{Name: "batch_size", Value: float64(len(wb.reqs))},
					),
				})
			}
			j.Record(decision.Record{At: b.lastRun, Kind: decision.KindSwitch,
				Instance: d.eng.Name, Model: d.sys.modelName(m), Outcome: d.sys.modelName(m),
				Reason:   d.sys.reason("decode rotation turn (from ", from, ")"),
				Requests: d.sys.requestIDs(b.reqs),
				Inputs: jot.Terms(
					decision.NsTerm("switch_cost", d.eng.EffectiveSwitchCost(m)),
					decision.NsTerm("quota", b.quota),
					decision.Term{Name: "turn_index", Value: float64(d.turnIdx)},
				),
				Candidates: jot.Candidates(),
			})
		}
		return
	}
	d.prefetchUpcoming()
	d.beginDecoding()
}

// switched continues the turn once its model switch lands.
func (d *decodeInstance) switched() {
	if d.dead {
		d.running = false
		return // crashed while the switch was in flight
	}
	// Prefetch the rotation's next model once the DMA engine is clear; the
	// turn's time slice hides it (§5.2).
	d.prefetchUpcoming()
	d.beginDecoding()
}

// synced continues the turn after a blocking sync (no fine-grained
// synchronization): the wait is charged to the batch as data overhead, and
// the quota starts after it.
func (d *decodeInstance) synced() {
	if d.dead {
		d.running = false
		return
	}
	now := d.eng.Sim().Now()
	d.chargeWait(d.turn, now-d.waitStart)
	d.sys.obs.SwitchStage(d.eng.Name, "kv-sync", d.waitStart, now)
	if d.syncOut {
		d.proceed()
		return
	}
	d.turnEnd += now - d.waitStart
	d.stepLoop()
}

// eventWait is one wait of a decode turn on transfer events: once need of
// the events it is registered on have fired it calls then, exactly once.
// Need 1 waits for the earliest (§5.3 step ⑥), need all for every one (a
// blocking sync). It stays registered on the others, so it returns to its
// instance's free list only when all of them have fired: a later wait
// never takes a record that an earlier wait's events still call.
type eventWait struct {
	d    *decodeInstance
	need int // fires still to come before then runs
	refs int // registered events yet to fire
	then func()
	fire func() // w.fired, bound once
}

// wait registers a wait for need of evs, then calls then.
func (d *decodeInstance) wait(evs []gpu.Event, need int, then func()) {
	var w *eventWait
	if n := len(d.waits); n > 0 {
		w = d.waits[n-1]
		d.waits[n-1] = nil
		d.waits = d.waits[:n-1]
	} else {
		w = &eventWait{d: d}
		w.fire = w.fired
	}
	w.need, w.refs, w.then = need, len(evs), then
	for _, ev := range evs {
		ev.OnComplete(w.fire)
	}
}

// fired counts one of the wait's events.
func (w *eventWait) fired() {
	w.refs--
	if w.need > 0 {
		if w.need--; w.need == 0 {
			w.then()
		}
	}
	if w.refs == 0 {
		w.then = nil
		w.d.waits = append(w.d.waits, w)
	}
}

// requestTLs returns the collector timelines of reqs in s.reqTLs, which
// the next call overwrites (observability only; callers nil-check the
// collector first, and the collector copies what it keeps).
func (s *System) requestTLs(reqs []*Request) []obs.Handle {
	s.reqTLs = s.reqTLs[:0]
	for _, r := range reqs {
		s.reqTLs = append(s.reqTLs, r.tl)
	}
	return s.reqTLs
}

// requestIDs returns the ids of reqs in s.reqIDs, which the next call
// overwrites (observers and the journal only; callers nil-check theirs
// first, and both copy what they keep).
func (s *System) requestIDs(reqs []*Request) []string {
	s.reqIDs = s.reqIDs[:0]
	for _, r := range reqs {
		s.reqIDs = append(s.reqIDs, r.ID)
	}
	return s.reqIDs
}

// reason returns prefix + name + suffix, a journal reason built from a
// model name, building each only once: there are only as many as
// templates times models.
func (s *System) reason(prefix, name, suffix string) string {
	key := [3]string{prefix, name, suffix}
	r, ok := s.reasons[key]
	if !ok {
		if s.reasons == nil {
			s.reasons = map[[3]string]string{}
		}
		r = prefix + name + suffix
		s.reasons[key] = r
	}
	return r
}

// swapOutBatch offloads every GPU-resident sequence of the batch, appending
// the transfer events to d.outgoing. If the unified CPU cache itself is
// exhausted (deep overload: a large backlog of prefilled-but-undecoded
// requests pins host memory), the sequence simply stays GPU-resident — it
// decodes on its batch's next turn and host capacity recycles as requests
// complete.
func (d *decodeInstance) swapOutBatch(b *dbatch) {
	for _, r := range b.reqs {
		if r.Seq != nil && r.Seq.State() == kvcache.StateGPU {
			ev, err := d.eng.KV().SwapOut(r.Seq)
			if err != nil {
				if errors.Is(err, memory.ErrOutOfMemory) {
					continue // backpressure: keep resident
				}
				panic("core: decode swap-out failed: " + err.Error())
			}
			d.outgoing = append(d.outgoing, ev)
		}
	}
}

// prefetchUpcoming prefetches the next different model in the rotation
// (§5.2: the time slice of a turn often completely hides it).
func (d *decodeInstance) prefetchUpcoming() {
	if d.turnIdx >= len(d.workList) {
		return // work list drained mid-switch (spot evacuation)
	}
	cur := d.workList[d.turnIdx].mid
	for i := d.turnIdx + 1; i < len(d.workList); i++ {
		if d.workList[i].mid != cur {
			d.eng.StartPrefetch(d.workList[i].mid)
			return
		}
	}
	// Wrap around to the round's start.
	for i := 0; i < d.turnIdx; i++ {
		if d.workList[i].mid != cur {
			d.eng.StartPrefetch(d.workList[i].mid)
			return
		}
	}
}

// beginDecoding swaps the turn's batch in and enters the step loop.
func (d *decodeInstance) beginDecoding() {
	if d.dead {
		d.running = false
		return
	}
	b := d.turn
	dbgTurn(d, "begin-decode", b)
	d.current = b
	d.incoming = d.incoming[:0]
	for _, r := range b.reqs {
		if ev, ok := d.swapInIfNeeded(r, b); ok {
			d.incoming = append(d.incoming, ev)
		}
	}
	d.turnEnd, d.stepped = d.eng.Sim().Now()+b.quota, false
	if !d.eng.Options().FineGrainedSync && len(d.incoming) > 0 {
		d.waitStart, d.syncOut = d.eng.Sim().Now(), false
		d.wait(d.incoming, len(d.incoming), d.syncDone)
		return
	}
	d.stepLoop()
}

// startSwapIn issues a swap-in for a request joining the current batch
// mid-turn.
func (d *decodeInstance) startSwapIn(r *Request) { d.swapInIfNeeded(r, d.current) }

// swapInIfNeeded brings r's KV toward the GPU for a turn of batch b. An
// OOM first evicts the KV of the least-recently-run other batch (lazy
// eviction), then retries — but only while b remains the executing batch:
// unscoped retries would keep swapping in sequences for batches that
// already rotated out, stealing KV from the running batch and collapsing
// it into tiny decode subsets.
func (d *decodeInstance) swapInIfNeeded(r *Request, b *dbatch) (gpu.Event, bool) {
	if r.Seq == nil {
		return gpu.Event{}, false
	}
	switch r.Seq.State() {
	case kvcache.StateCPU, kvcache.StateSwappingOut:
		ev, err := d.eng.KV().SwapIn(r.Seq)
		if err != nil {
			if errors.Is(err, memory.ErrOutOfMemory) {
				d.evictKVFor(b)
				d.eng.Sim().After(10*time.Millisecond, func() {
					if !d.dead && !r.terminal() && b != nil && d.current == b {
						d.swapInIfNeeded(r, b)
					}
				})
				return gpu.Event{}, false
			}
			panic("core: decode swap-in failed: " + err.Error())
		}
		d.checkRunRoom()
		return ev, true
	default:
		return gpu.Event{}, false
	}
}

// evictKVFor offloads the GPU KV of the least-recently-run batch other than
// cur, freeing space for cur's swap-ins (blocks release as the offload
// copies complete).
func (d *decodeInstance) evictKVFor(cur *dbatch) {
	var victim *dbatch
	for _, b := range d.workList {
		if b == cur || !b.hasGPUResidentKV() {
			continue
		}
		if victim == nil || b.lastRun < victim.lastRun {
			victim = b
		}
	}
	if victim != nil {
		d.sys.obs.Evicted(d.eng.Name, d.sys.modelName(victim.mid), d.eng.Sim().Now())
		if j := d.sys.dec; j != nil {
			jot := &d.sys.jot
			jot.Reset()
			for _, b := range d.workList {
				if b == cur || !b.hasGPUResidentKV() {
					continue
				}
				jot.Candidate(decision.Candidate{
					Name:   d.sys.modelName(b.mid),
					Score:  float64(b.lastRun),
					Chosen: b == victim,
					Terms: jot.Terms(
						decision.NsTerm("last_run", b.lastRun),
						decision.Term{Name: "context_tokens", Value: float64(b.contextTokens())},
					),
				})
			}
			j.Record(decision.Record{At: d.eng.Sim().Now(), Kind: decision.KindKVEviction,
				Instance: d.eng.Name, Model: d.sys.modelName(victim.mid), Outcome: d.sys.modelName(victim.mid),
				Reason:   d.sys.reason("LRU batch evicted for ", d.sys.modelName(cur.mid), " swap-in"),
				Requests: d.sys.requestIDs(victim.reqs),
				Inputs: jot.Terms(
					decision.NsTerm("victim_last_run", victim.lastRun),
					decision.Term{Name: "victim_context_tokens", Value: float64(victim.contextTokens())},
				),
				Candidates: jot.Candidates(),
			})
		}
		d.swapOutBatch(victim)
	}
}

// chargeWait attributes exposed transfer-wait time to every sequence in the
// batch (data overhead, Fig. 14).
func (d *decodeInstance) chargeWait(b *dbatch, w time.Duration) {
	for _, r := range b.reqs {
		if r.Seq != nil {
			r.Seq.AddTransferWait(w)
		}
	}
}

// stepLoop runs decoding steps for the turn's batch until its quota expires
// or the batch drains. Only GPU-resident sequences decode (rule ❶); if none
// are ready, the loop waits for the earliest swap-in to complete, accruing
// data overhead (§5.3 step ⑥: cudaEventQuery per request, start as soon as
// one is loaded). A turn never ends before making progress (d.stepped):
// otherwise small quotas combined with swap-in latency could rotate batches
// forever without generating tokens.
func (d *decodeInstance) stepLoop() {
	if d.dead {
		d.running = false
		return
	}
	b := d.turn
	now := d.eng.Sim().Now()
	// Drop requests that went terminal since the last step (client aborts
	// land between steps; their KV is already released).
	kept := b.reqs[:0]
	for _, r := range b.reqs {
		if !r.terminal() {
			kept = append(kept, r)
		}
	}
	b.reqs = kept
	if len(b.reqs) == 0 || (now >= d.turnEnd && d.stepped) {
		d.endTurn()
		return
	}
	// Reusing inflight and waiting is safe: one stepLoop chain runs per
	// instance, and readied reads waiting before it calls stepLoop again,
	// which is the only writer. steady records whether the
	// step set can hold for more than one step: every member is ready and
	// takes its append, and none streams its tokens (OnToken).
	ready, inflight, waiting := d.ready[:0], d.inflight[:0], d.waiting[:0]
	steady := true
	for _, r := range b.reqs {
		if r.Seq == nil {
			steady = false
			continue
		}
		switch r.Seq.State() {
		case kvcache.StateGPU:
			ready = append(ready, r)
			steady = steady && r.OnToken == nil
			continue
		case kvcache.StateSwappingIn, kvcache.StateSwappingOut:
			if ev := r.Seq.LastTransfer(); !ev.Query() {
				inflight = append(inflight, ev)
				waiting = append(waiting, r)
			}
		case kvcache.StateCPU:
			// Swap-in previously deferred by OOM; try again.
			if ev, ok := d.swapInIfNeeded(r, b); ok {
				inflight = append(inflight, ev)
				waiting = append(waiting, r)
			}
		}
		steady = false
	}
	d.ready, d.inflight, d.waiting = ready, inflight, waiting
	if len(ready) == 0 {
		if len(inflight) == 0 {
			// Everything deferred by OOM retries; poll.
			d.turnEnd += 10 * time.Millisecond
			d.eng.Sim().After(10*time.Millisecond, d.stepNext)
			return
		}
		d.waitStart = now
		d.wait(inflight, 1, d.readyDone)
		return
	}
	// Grow each ready sequence by the token this step will produce.
	var ctx int64
	reqs := d.runReqs[:0]
	for _, r := range ready {
		if err := d.eng.KV().AppendTokens(r.Seq, 1); err != nil {
			if errors.Is(err, memory.ErrOutOfMemory) {
				steady = false
				continue // skip this step; capacity frees as others finish
			}
			panic("core: append token: " + err.Error())
		}
		reqs = append(reqs, r)
		ctx += r.ContextTokens()
	}
	d.runReqs = reqs
	if len(reqs) == 0 {
		// KV full: end the turn so the batch rotates out and frees space.
		d.endTurn()
		return
	}
	// One fleet KV sample covers the step's appends: they only allocate, so
	// the last one's usage is the step's peak.
	d.eng.KV().NoteKV()
	d.stepStart, d.stepCtx = now, ctx
	if steady && d.eng.ComputeIdle() && d.planRun() {
		d.sys.runs.add(d)
		d.eng.DecodeRun(&d.run, d.runDone)
		return
	}
	d.eng.DecodeStep(ctx, d.runDone)
}

// readied continues the step loop once the earliest awaited swap-in lands:
// the wait is charged to the requests that waited, and it does not consume
// quota.
func (d *decodeInstance) readied() {
	now := d.eng.Sim().Now()
	w := now - d.waitStart
	for _, r := range d.waiting {
		r.Seq.AddTransferWait(w)
	}
	d.sys.obs.SwitchStage(d.eng.Name, "kv-sync", d.waitStart, now)
	d.turnEnd += w
	d.stepLoop()
}

// planRun plans a run over runReqs, whose first step's appends are applied,
// into d.run and reports whether it has more than one step. The run takes
// every step the one-step loop would take over the same step set, back to
// back: a step follows while no member has finished, the previous step
// ended before the turn's end, and the appends of every step so far fit in
// the blocks the KV pool has free for the batch's shape class. How it plans
// never depends on observers.
func (d *decodeInstance) planRun() bool {
	k := maxRunSteps
	for _, r := range d.runReqs {
		k = min(k, r.RemainingTokens())
	}
	if k < 2 {
		return false
	}
	kv := d.eng.KV()
	free := kv.FreeBlocks(d.runReqs[0].Seq)
	// Step i appends one token to each sequence, which holds Tokens()+i-1
	// before it (Tokens counts the first step's append). When those fill
	// its blocks exactly, the append takes a new one: at the steps i with
	// i ≡ -(Tokens()-1) mod block.
	block := kv.GPUCache.BlockTokens()
	fill := d.runFill[:0]
	for range block {
		fill = append(fill, 0)
	}
	for _, r := range d.runReqs {
		fill[(block-(r.Seq.Tokens()-1)%block)%block]++
	}
	d.runFill = fill
	ctx, n := d.stepCtx, 1
	first := d.stepStart + d.eng.StepTime(ctx)
	end := first
	for n < k && end < d.turnEnd {
		if free -= fill[n%block]; free < 0 {
			break
		}
		ctx += int64(len(d.runReqs))
		end += d.eng.StepTime(ctx)
		n++
	}
	if n == 1 {
		return false
	}
	d.run = gpu.Run{Next: first, End: end}
	d.runSteps, d.runStep = n, 0
	return true
}

// due returns the earliest step boundary of the run in flight that the
// settler has yet to settle: every one but the run's end, which finishRun
// handles as the run's kernel event.
func (d *decodeInstance) due() (sim.Time, bool) {
	return d.run.Next, d.run.Next < d.run.End
}

// settleStep settles the run's next step boundary, where the clock now
// stands, doing what finishRun and then stepLoop do at the end of a
// one-step run, in the same order: the step's op record, its tokens and
// their observer feed, then the next step's appends and KV sample. The
// plan already made every check that loop makes, so settling changes
// nothing about it: the next step's end is recomputed as planned.
func (d *decodeInstance) settleStep() {
	end := d.run.Next
	d.stepCtx += int64(len(d.runReqs))
	next := end + d.eng.StepTime(d.stepCtx)
	d.eng.SettleStep(next)
	d.stampStep(d.stepStart, end)
	kv := d.eng.KV()
	for _, r := range d.runReqs {
		if err := kv.AppendTokens(r.Seq, 1); err != nil {
			panic("core: append token in a decode run: " + err.Error())
		}
	}
	kv.NoteKV()
	d.stepStart = end
	d.runStep++
	if (next == d.run.End) != (d.runStep == d.runSteps-1) {
		panic("core: settling a decode run changed its plan")
	}
}

// stampStep records the tokens of the step of runReqs that ran over
// [start, end): every request in the step set receives its token, credited
// with the step's time, and each observer is fed the step's tokens once.
func (d *decodeInstance) stampStep(start, end sim.Time) {
	mid := d.turn.mid
	if d.sys.obs != nil {
		tls := d.stepTLs[:0]
		for _, r := range d.runReqs {
			tls = append(tls, r.tl)
		}
		d.stepTLs = tls
		d.sys.obs.TokenBatch(d.eng.Name, mid, end, tls)
	}
	for _, r := range d.runReqs {
		d.feed.record(d.sys, d.eng.Name, r, end)
		r.decodeExec += end - start
	}
	// A batch is single-model, so one model id covers the step's tokens.
	d.feed.flush(d.sys, mid)
}

// cut ends the run in flight at the end of its step in flight: something
// changed what the next step does (a join, an abort, a crash, a pool
// allocation). Settling has already brought the run up to now. Outside a
// run of more than one step, or in its last step, it does nothing.
func (d *decodeInstance) cut() {
	if d.run.Next < d.run.End {
		d.eng.CutRun()
	}
}

// checkRunRoom cuts the run in flight when the KV pool no longer has the
// blocks its steps after the one in flight append: an allocation took them.
func (d *decodeInstance) checkRunRoom() {
	if d.run.Next == d.run.End {
		return
	}
	need, block := 0, len(d.runFill)
	for i := d.runStep + 1; i < d.runSteps; i++ {
		need += d.runFill[i%block]
	}
	if need > 0 && d.eng.KV().FreeBlocks(d.runReqs[0].Seq) < need {
		d.cut()
	}
}

// finishRun is the run's end, its one kernel event: the last step's tokens
// land, finished requests release their KV, and the loop continues with the
// run's batch.
func (d *decodeInstance) finishRun() {
	d.run = gpu.Run{}
	if d.dead {
		// The instance fail-stopped (crash or spot revocation) while this
		// run was on the GPU. Its requests were orphaned or evacuated and
		// may already be re-homed with fresh sequences — or none at all —
		// so the tokens of the step in flight must not be recorded.
		d.running = false
		return
	}
	b := d.turn
	d.stampStep(d.stepStart, d.eng.Sim().Now())
	finishedAny := false
	for _, r := range d.runReqs {
		if r.RemainingTokens() <= 0 {
			if err := d.eng.KV().Free(r.Seq); err != nil {
				panic("core: free finished sequence: " + err.Error())
			}
			d.sys.finishRequest(r)
			finishedAny = true
		}
	}
	if finishedAny {
		kept := b.reqs[:0]
		for _, r := range b.reqs {
			if !r.terminal() {
				kept = append(kept, r)
			}
		}
		b.reqs = kept
	}
	d.stepped = true
	d.stepLoop()
}

func (d *decodeInstance) endTurn() {
	dbgTurn(d, "end-turn", d.current)
	if d.current != nil {
		d.sys.obs.TurnEnd(d.eng.Name, d.current.mid, d.eng.Sim().Now())
	}
	d.current = nil
	d.turnIdx++
	d.runTurn()
}
