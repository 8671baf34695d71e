package slomon

import (
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
)

// Cause classifies why a token missed its deadline, by joining the miss
// against the request's obs span timeline: the cause is the span family
// covering the largest share of the overrun interval [deadline, at].
type Cause int

const (
	CauseQueueWait Cause = iota // waiting for a prefill slot
	CausePrefill                // prefill execution (contention / long input)
	CauseSwitchReinit
	CauseSwitchFetch
	CauseSwitchWeightLoad
	CauseSwitchKVSync
	CauseSwitchOther
	CauseDecodePreempt // parked between decode turns (quota preemption)
	CauseDecodeExec    // inside a decode turn but too slow (TBT overrun)
	// CausePrefixMissRecompute: prefill recomputed a cold conversation
	// prefix the cache could have served — only emitted when the prefix
	// cache is on, distinguishing cold-prefix misses from switch-cost and
	// generic prefill misses.
	CausePrefixMissRecompute
	CauseFault // inside an active fault window
	CauseUnknown
	numCauses
)

var causeNames = [numCauses]string{
	"queue_wait", "prefill",
	"switch_reinit", "switch_fetch", "switch_weight_load", "switch_kv_sync", "switch_other",
	"decode_preempt", "decode_exec", "prefix_miss_recompute", "fault", "unknown",
}

func (c Cause) String() string {
	if c >= 0 && c < numCauses {
		return causeNames[c]
	}
	return "invalid"
}

// causePriority breaks overlap ties: switch stalls are the scarce, actionable
// signal (the paper's whole contribution is shrinking them), so they win over
// the generic wait families; execution overrun is the weakest claim.
// CausePrefixMissRecompute sits above CausePrefill: its span covers exactly
// the prefill interval of a cold-prefix request, and when the two tie the
// sharper label must win.
var causePriority = [...]Cause{
	CauseSwitchReinit, CauseSwitchFetch, CauseSwitchWeightLoad, CauseSwitchKVSync, CauseSwitchOther,
	CauseQueueWait, CausePrefixMissRecompute, CausePrefill, CauseDecodePreempt, CauseDecodeExec,
}

// spanCause maps a span (name, detail) to its cause family. The switch-stall
// detail carries the dominant switch stage settled at obs.EndSwitch.
func spanCause(name, detail string) (Cause, bool) {
	switch name {
	case "queue-wait":
		return CauseQueueWait, true
	case "prefill":
		return CausePrefill, true
	case "decode-wait":
		return CauseDecodePreempt, true
	case "decode-turn":
		return CauseDecodeExec, true
	case "prefix-recompute":
		return CausePrefixMissRecompute, true
	case "switch-stall":
		switch detail {
		case "reinit", "gc-pause":
			return CauseSwitchReinit, true
		case "fetch":
			return CauseSwitchFetch, true
		case "weight-load":
			return CauseSwitchWeightLoad, true
		case "kv-sync":
			return CauseSwitchKVSync, true
		}
		return CauseSwitchOther, true
	}
	return CauseUnknown, false
}

// classify attributes one missed token. faultActive and src may be nil.
func classify(src *obs.Collector, faultActive func(model, instance string) bool,
	model, request, instance string, arrival, deadline, at sim.Time) Cause {
	if faultActive != nil && faultActive(model, instance) {
		return CauseFault
	}
	if src == nil {
		return CauseUnknown
	}
	if c, ok := dominantCause(src, request, deadline, at); ok {
		return c
	}
	// The overrun interval itself held no spans (e.g. the miss was judged
	// long after the fact): widen to the whole request lifetime.
	if c, ok := dominantCause(src, request, arrival, at); ok {
		return c
	}
	return CauseUnknown
}

// dominantCause accumulates per-cause overlap with [from, to] and returns
// the cause with the largest share, ties broken by causePriority.
func dominantCause(src *obs.Collector, request string, from, to sim.Time) (Cause, bool) {
	if to <= from {
		return CauseUnknown, false
	}
	var overlap [numCauses]sim.Time
	found := src.VisitSpans(request, from, to, func(name, detail string, start, end sim.Time) {
		c, ok := spanCause(name, detail)
		if !ok {
			return
		}
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		if end > start {
			overlap[c] += end - start
		}
	})
	if !found {
		return CauseUnknown, false
	}
	best := CauseUnknown
	var bestD sim.Time
	for _, c := range causePriority {
		if overlap[c] > bestD {
			best, bestD = c, overlap[c]
		}
	}
	if bestD <= 0 {
		return CauseUnknown, false
	}
	return best, true
}
