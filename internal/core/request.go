// Package core implements Aegaeon's contribution: the token-level scheduler
// of §4 — grouped-FCFS prefill scheduling (Algorithm 1), weighted
// round-robin decoding scheduling with analytic time quotas (Algorithm 2,
// Eqs. 2–3), prefill/decoding disaggregation, and the dispatch policies that
// tie them to preemptive auto-scaling.
package core

import (
	"strings"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// Request is the runtime state of one inference request inside the system.
type Request struct {
	ID    string
	Model *model.Model

	// mid is Model's id in the system's registry; tl is the request's
	// timeline in the collector (the zero Handle with observability off).
	mid model.ID
	tl  obs.Handle

	Arrival      sim.Time
	InputTokens  int
	OutputTokens int // total tokens to produce, including the first

	// Priority is the request's service tier: overload shedding removes low
	// tiers first and degraded prefill scheduling serves high tiers first.
	Priority workload.Priority
	// Deadline is the request's first-token deadline (arrival + TTFT target
	// under its SLO), precomputed at submission for deadline-aware queue
	// ordering and the overload reaper.
	Deadline sim.Time

	// judged is the SLO judgement of the tokens produced so far, each judged
	// as it lands; its count is the tokens generated. firstToken and
	// lastToken are the completion times of the first and latest of them.
	// Token 0 is produced by prefill; tokens 1..OutputTokens-1 by decoding
	// steps.
	judged                slo.Stream
	firstToken, lastToken sim.Time
	// TokenTimes[i] is the completion time of token i, kept only while the
	// system's token log is on (System.LogTokens); nil otherwise.
	TokenTimes []sim.Time

	// Seq is the request's KV cache while it is in flight. A request lets
	// go of it when it ends; Finalize's breakdown then reads the transfer
	// wait the sequence had accrued from xferWait.
	Seq *kvcache.Sequence

	// Outcome is how the request ended: "" while it is in flight, else the
	// journal's decision.OutcomeDone (served), OutcomeFailed (cleanly
	// rejected: the system gave up on it, e.g. no surviving capacity after
	// a crash; FailReason says why) or OutcomeAborted (its client went
	// away). The system sets it once, in one place, which also fires OnDone
	// for every outcome. A request with an outcome emits no more tokens.
	Outcome    string
	FailReason string
	// Overshoot is how far past its deadline admission projected the first
	// token of a request it shed as doomed on arrival; zero otherwise.
	Overshoot time.Duration

	// OnToken, when non-nil, is invoked synchronously on the simulation
	// goroutine as each token's completion time is recorded: token 0 from
	// prefill, the rest from decoding steps. Callbacks must not block —
	// the live gateway hands tokens off to a buffered channel.
	OnToken func(i int, at sim.Time)
	// OnDone, when non-nil, is invoked once when the request ends, whatever
	// its outcome: served, failed or aborted.
	OnDone func(r *Request)

	// live marks requests admitted via SubmitLive: they are not retained
	// for batch Finalize reporting; their SLO observation folds into the
	// tracker at completion so a long-running server stays bounded.
	live bool
	// monitored marks a batch request that failed while the monitor was
	// on: failRequest fed its verdict to the monitor at once, so burn rates
	// reflect overload as it happens, and Finalize folds the verdict into
	// the tracker only.
	monitored bool

	// Segments carries the deterministic prompt content from the workload
	// layer; the prefix cache matches prompts through it. Empty means opaque
	// content.
	Segments []workload.PromptSeg
	// chunkHashes memoizes the prompt's chained chunk hashes (promptHashes).
	chunkHashes []uint64

	// prefixHit is the pinned prefix-cache match being reused by the current
	// prefill attempt (nil when none). PrefixMatched is the matched token
	// count of the *last successful* prefill, for reporting.
	prefixHit     *prefixcache.Hit
	PrefixMatched int

	// Latency breakdown bookkeeping (Fig. 14).
	prefillStart sim.Time
	prefillEnd   sim.Time
	decodeExec   time.Duration
	xferWait     time.Duration // Seq's transfer wait, kept when Seq is released
	finished     sim.Time
}

// transferWait returns the exposed data-plane wait of r's KV transfers: its
// sequence's while it holds one, else what it kept when it let go of it.
func (r *Request) transferWait() time.Duration {
	if r.Seq != nil {
		return r.Seq.TransferWait()
	}
	return r.xferWait
}

func newRequest(wr workload.Request, m *model.Model, id model.ID) *Request {
	return &Request{
		ID:           wr.ID,
		Model:        m,
		mid:          id,
		Arrival:      wr.Arrival,
		InputTokens:  wr.InputTokens,
		OutputTokens: wr.OutputTokens,
		Priority:     wr.Priority,
		Segments:     wr.Segments,
	}
}

// recordToken judges a token completed at `at`, keeps its time when the
// system's token log is on, and fires the OnToken hook. All token emission
// funnels through here so live streaming observes every token exactly
// once, in order — and so terminal requests (failed or aborted) emit
// nothing more, even from compute steps already in flight when they became
// terminal. The first logged token sizes TokenTimes for the whole output,
// so a request's token log is one allocation.
func (r *Request) recordToken(s *System, at sim.Time) {
	if r.terminal() {
		return
	}
	i := r.judged.N()
	r.judged.Add(s.sloFor(r.mid), r.Arrival, at)
	if i == 0 {
		r.firstToken = at
	}
	r.lastToken = at
	if s.logTokens {
		if r.TokenTimes == nil {
			r.TokenTimes = make([]sim.Time, 0, r.OutputTokens)
		}
		r.TokenTimes = append(r.TokenTimes, at)
	}
	if r.OnToken != nil {
		r.OnToken(i, at)
	}
}

// promptHashes returns the prompt's chained chunk hashes over its
// InputTokens/block whole blocks, computed on first use. Chained hashes are
// prefix-stable, so every prefix-cache call for the request — routing's
// Match, Acquire and Insert — reads a prefix of this one slice instead of
// hashing the prompt again.
func (r *Request) promptHashes(block int) []uint64 {
	if r.chunkHashes == nil {
		r.chunkHashes = prefixcache.ChunkHashes(r.Segments, r.InputTokens/block, block)
	}
	return r.chunkHashes
}

// terminal reports whether the request has ended.
func (r *Request) terminal() bool { return r.Outcome != "" }

// ShedReason reports the typed reason overload control shed r for (one of
// the Shed* constants), and whether it shed r at all.
func (r *Request) ShedReason() (string, bool) {
	if r.Outcome != decision.OutcomeFailed {
		return "", false
	}
	return strings.CutPrefix(r.FailReason, shedPrefix)
}

// Generated returns the number of tokens produced so far.
func (r *Request) Generated() int { return r.judged.N() }

// FirstToken returns the completion time of token 0 (0 before it lands).
func (r *Request) FirstToken() sim.Time { return r.firstToken }

// LastToken returns the completion time of the latest token (0 before the
// first lands).
func (r *Request) LastToken() sim.Time { return r.lastToken }

// RemainingTokens returns how many tokens are still to be produced.
func (r *Request) RemainingTokens() int { return r.OutputTokens - r.Generated() }

// ContextTokens returns the current attention context length (prompt plus
// generated tokens), which drives the Eq. 6 decode cost.
func (r *Request) ContextTokens() int64 {
	return int64(r.InputTokens + r.Generated())
}

// ProjectedTokens returns the KV footprint in tokens the request will reach
// by completion — used for capacity-derived batch limits (Algorithm 2).
func (r *Request) ProjectedTokens() int64 {
	return int64(r.InputTokens + r.OutputTokens)
}
