package slomon

import (
	"testing"
	"time"

	"aegaeon/internal/obs"
)

// buildTimeline populates a collector with one request that walks the full
// span lifecycle: queue-wait [0,2s), prefill [2s,5s), decode-wait [5s,8s),
// decode-turn [8s,12s), done at 12s.
func buildTimeline(t *testing.T) *obs.Collector {
	t.Helper()
	c := obs.New(obs.Options{})
	h := c.RequestArrived("r1", "m0", 0)
	c.PrefillStart("g0", "r1", h, 2*time.Second)
	c.PrefillDone("g0", "r1", h, 5*time.Second)
	c.TurnStart("g0", 1, 8*time.Second, time.Second, []obs.Handle{h})
	c.TurnEnd("g0", 1, 12*time.Second)
	c.RequestDone("r1", 12*time.Second)
	return c
}

func TestClassifyBySpanFamily(t *testing.T) {
	c := buildTimeline(t)
	cases := []struct {
		name         string
		deadline, at time.Duration
		want         Cause
	}{
		{"queue wait dominates", 500 * time.Millisecond, 1500 * time.Millisecond, CauseQueueWait},
		{"prefill dominates", 2 * time.Second, 5 * time.Second, CausePrefill},
		{"decode preemption dominates", 5 * time.Second, 8 * time.Second, CauseDecodePreempt},
		{"decode execution dominates", 8 * time.Second, 12 * time.Second, CauseDecodeExec},
		// Straddling queue (1s) and prefill (3s): prefill wins on overlap.
		{"largest overlap wins", time.Second, 5 * time.Second, CausePrefill},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := classify(c, nil, "m0", "r1", "g0", 0, tc.deadline, tc.at)
			if got != tc.want {
				t.Fatalf("classify([%v,%v]) = %v, want %v", tc.deadline, tc.at, got, tc.want)
			}
		})
	}
}

func TestClassifySwitchStages(t *testing.T) {
	// One switch per stage kind, each stalling its own victim request.
	stages := []struct {
		stage string
		want  Cause
	}{
		{"reinit", CauseSwitchReinit},
		{"gc-pause", CauseSwitchReinit},
		{"fetch", CauseSwitchFetch},
		{"weight-load", CauseSwitchWeightLoad},
		{"kv-sync", CauseSwitchKVSync},
		{"compact", CauseSwitchOther},
	}
	for _, tc := range stages {
		t.Run(tc.stage, func(t *testing.T) {
			c := obs.New(obs.Options{})
			c.RequestArrived("v1", "m0", 0)
			c.BeginSwitch("g0", "m1", "m0", time.Second, false)
			c.SwitchStage("g0", tc.stage, time.Second, 9*time.Second)
			c.SwitchVictims("g0", []string{"v1"})
			c.EndSwitch("g0", 10*time.Second)
			got := classify(c, nil, "m0", "v1", "g0", 0, 2*time.Second, 9*time.Second)
			if got != tc.want {
				t.Fatalf("stage %q classified as %v, want %v", tc.stage, got, tc.want)
			}
		})
	}
}

func TestClassifySwitchBeatsWaitOnTie(t *testing.T) {
	// A switch stall overlapping exactly as much as queue-wait must win:
	// it is the actionable signal.
	c := obs.New(obs.Options{})
	h := c.RequestArrived("r1", "m0", 0) // queue-wait opens at 0
	c.BeginSwitch("g0", "m1", "m0", 0, false)
	c.SwitchStage("g0", "weight-load", 0, 4*time.Second)
	c.SwitchVictims("g0", []string{"r1"})
	c.EndSwitch("g0", 4*time.Second)
	c.PrefillStart("g0", "r1", h, 4*time.Second) // closes queue-wait at 4s
	got := classify(c, nil, "m0", "r1", "g0", 0, 0, 4*time.Second)
	if got != CauseSwitchWeightLoad {
		t.Fatalf("tied overlap = %v, want switch_weight_load to win the tie", got)
	}
}

func TestClassifyFaultWindowWinsOverSpans(t *testing.T) {
	c := buildTimeline(t)
	faulty := func(model, instance string) bool { return instance == "g0" }
	if got := classify(c, faulty, "m0", "r1", "g0", 0, 2*time.Second, 5*time.Second); got != CauseFault {
		t.Fatalf("active fault window = %v, want fault", got)
	}
	// Fault on a different instance does not claim the miss.
	if got := classify(c, faulty, "m0", "r1", "g9", 0, 2*time.Second, 5*time.Second); got != CausePrefill {
		t.Fatalf("unrelated fault = %v, want prefill", got)
	}
}

func TestClassifyFallbacks(t *testing.T) {
	// No collector at all: unknown.
	if got := classify(nil, nil, "m0", "r1", "g0", 0, time.Second, 2*time.Second); got != CauseUnknown {
		t.Fatalf("nil collector = %v, want unknown", got)
	}
	// Unknown request: unknown.
	c := buildTimeline(t)
	if got := classify(c, nil, "m0", "nope", "g0", 0, time.Second, 2*time.Second); got != CauseUnknown {
		t.Fatalf("unknown request = %v, want unknown", got)
	}
	// Empty overrun interval (deadline after judgement, e.g. a dropped
	// future token) widens to the request lifetime and still classifies.
	if got := classify(c, nil, "m0", "r1", "g0", 0, 30*time.Second, 12*time.Second); got == CauseUnknown {
		t.Fatal("future-deadline drop fell through to unknown; want lifetime-widened cause")
	}
	// Open spans of a live request are joined too.
	live := obs.New(obs.Options{})
	live.RequestArrived("r2", "m0", 0) // queue-wait still open
	if got := classify(live, nil, "m0", "r2", "g0", 0, time.Second, 3*time.Second); got != CauseQueueWait {
		t.Fatalf("open span = %v, want queue_wait", got)
	}
}

// TestClassifyPrefixMissRecompute: a cold-prefix prefill carries a
// prefix-recompute span covering exactly its prefill interval, and the
// sharper label must win that exact tie. A prefix-reuse span (the cache DID
// serve the prefix) is not a miss cause and must not perturb attribution.
func TestClassifyPrefixMissRecompute(t *testing.T) {
	c := buildTimeline(t) // prefill [2s,5s)
	c.RequestSpan("g0", "r1", "prefix-recompute", "cold prefix", 2*time.Second, 5*time.Second)
	if got := classify(c, nil, "m0", "r1", "g0", 0, 2*time.Second, 5*time.Second); got != CausePrefixMissRecompute {
		t.Fatalf("cold-prefix prefill = %v, want prefix_miss_recompute", got)
	}
	// The overrun can extend past prefill; the recompute span still dominates
	// as long as it covers the largest share.
	if got := classify(c, nil, "m0", "r1", "g0", 0, 2*time.Second, 6*time.Second); got != CausePrefixMissRecompute {
		t.Fatalf("extended overrun = %v, want prefix_miss_recompute", got)
	}

	warm := buildTimeline(t)
	warm.RequestSpan("g0", "r1", "prefix-reuse", "48 tokens (16 device)", 2*time.Second, 3*time.Second)
	if got := classify(warm, nil, "m0", "r1", "g0", 0, 2*time.Second, 5*time.Second); got != CausePrefill {
		t.Fatalf("warm prefill = %v, want plain prefill (reuse is not a miss cause)", got)
	}
}

func TestCauseNamesComplete(t *testing.T) {
	for c := Cause(0); c < numCauses; c++ {
		if c.String() == "" || c.String() == "invalid" {
			t.Fatalf("cause %d has no name", c)
		}
	}
	if len(Causes()) != int(numCauses) {
		t.Fatalf("Causes() = %d entries, want %d", len(Causes()), numCauses)
	}
}
