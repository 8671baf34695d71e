package core

import (
	"math/rand"
	"testing"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/fault"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

// Crash with a detection delay: orphans make no progress until recovery,
// then every request still completes with exact token counts.
func TestCrashThenDelayedRecovery(t *testing.T) {
	sys, se, trace := failoverFixture(t, 1, 3)
	se.At(45*time.Second, func() {
		if err := sys.CrashInstance("decode1"); err != nil {
			t.Error(err)
		}
	})
	var orphansSeen int
	se.At(45*time.Second+500*time.Millisecond, func() {
		orphansSeen = sys.OrphanedRequests()
		// ~1.5s detection delay before the proxy notices the dead lease.
		se.After(time.Second, func() {
			resumed, recomputed := sys.RecoverOrphansOf("decode1")
			if resumed+recomputed == 0 {
				t.Error("recovery found no orphans — instance was idle at t=45s?")
			}
		})
	})
	se.Run()
	sys.Finalize(se.Now())
	if orphansSeen == 0 {
		t.Fatal("no orphans stashed during the detection window")
	}
	if sys.OrphanedRequests() != 0 {
		t.Fatalf("orphans left after recovery: %d", sys.OrphanedRequests())
	}
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d/%d after delayed recovery", sys.Completed(), len(trace))
	}
	for _, r := range sys.Requests() {
		if r.Generated() != r.OutputTokens {
			t.Fatalf("request %s has %d tokens, want %d", r.ID, r.Generated(), r.OutputTokens)
		}
	}
}

// When the last instance of a partition dies, its requests are cleanly
// rejected — Failed, OnDone fired, never served — instead of panicking.
func TestTotalDecodeLossRejectsCleanly(t *testing.T) {
	models := model.MarketMix(4)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(11))
	trace := workload.PoissonTrace(rng, names, 0.15, 60*time.Second, workload.ShareGPT())
	se := sim.NewEngine(1)
	cfg := testConfig(models, engine.AllOptimizations(), 1, 1)
	cfg.Faults = fault.New(se, 5)
	sys := NewSystem(se, cfg)
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	se.At(20*time.Second, func() {
		if _, _, err := failInstance(sys, "decode0"); err != nil {
			t.Error(err)
		}
	})
	se.Run()
	sys.Finalize(se.Now())
	if sys.FailedRequests() == 0 {
		t.Fatal("no requests rejected after losing the whole decode partition")
	}
	if got := sys.Completed() + sys.FailedRequests(); got != len(trace) {
		t.Fatalf("completed+failed = %d, want %d (no request may hang)", got, len(trace))
	}
	for _, r := range sys.Requests() {
		if r.Outcome != decision.OutcomeDone && r.Outcome != decision.OutcomeFailed {
			t.Fatalf("request %s: outcome %q, want done or failed", r.ID, r.Outcome)
		}
		if r.Outcome == decision.OutcomeFailed && r.FailReason == "" {
			t.Fatalf("request %s failed without a reason", r.ID)
		}
	}
	if cfg.Faults.Snapshot().Rejected != uint64(sys.FailedRequests()) {
		t.Fatalf("fault stats Rejected=%d, FailedRequests=%d",
			cfg.Faults.Snapshot().Rejected, sys.FailedRequests())
	}
}

// Aborting a live request releases its KV, stops token emission, fires
// OnDone once with the aborted outcome, and leaves the rest of the workload
// unaffected. A second Abort does nothing and fires nothing.
func TestAbortReleasesAndSilences(t *testing.T) {
	models := model.MarketMix(2)
	se := sim.NewEngine(1)
	sys := NewSystem(se, testConfig(models, engine.AllOptimizations(), 1, 1))

	var tokens, doneFired int
	var r *Request
	se.At(0, func() {
		var err error
		r, err = sys.SubmitLive(workload.Request{
			ID: "live-0", Model: models[0].Name, InputTokens: 512, OutputTokens: 4000,
		}, func(i int, at sim.Time) { tokens++ }, func(d *Request) {
			doneFired++
			if d.Outcome != decision.OutcomeAborted {
				t.Errorf("OnDone saw outcome %q, want aborted", d.Outcome)
			}
		})
		if err != nil {
			t.Error(err)
		}
	})
	// Abort mid-decode: well after prefill, well before 4000 tokens finish.
	se.At(20*time.Second, func() {
		if r.Generated() == 0 {
			t.Error("request produced no tokens before the abort point")
		}
		sys.Abort(r)
		if doneFired != 1 {
			t.Errorf("OnDone fired %d times by the abort, want 1", doneFired)
		}
		sys.Abort(r) // a no-op: the request has ended
	})
	se.Run()

	if r.Outcome != decision.OutcomeAborted {
		t.Fatalf("outcome %q, want aborted", r.Outcome)
	}
	if doneFired != 1 {
		t.Fatalf("OnDone fired %d times for an aborted request, want 1", doneFired)
	}
	if tokens != r.Generated() || tokens >= 4000 {
		t.Fatalf("tokens streamed = %d, generated = %d", tokens, r.Generated())
	}
	if r.Seq != nil {
		t.Fatal("aborted request still holds a sequence")
	}
	if sys.LiveInFlight() != 0 {
		t.Fatalf("LiveInFlight = %d after abort", sys.LiveInFlight())
	}
	// All KV is back: both GPU tiers and the CPU tier are empty.
	for _, e := range sys.Engines() {
		if used := e.KV().GPUCache.Pool().UsedBytes(); used != 0 {
			t.Fatalf("instance %s leaks %d KV bytes after abort", e.Name, used)
		}
	}
	if used := sys.cpuKV.Pool().UsedBytes(); used != 0 {
		t.Fatalf("cpu KV leaks %d bytes after abort", used)
	}
}

// A request aborted while still queued for prefill never allocates KV and
// never emits a token.
func TestAbortBeforePrefill(t *testing.T) {
	models := model.MarketMix(2)
	se := sim.NewEngine(1)
	sys := NewSystem(se, testConfig(models, engine.AllOptimizations(), 1, 1))
	var tokens int
	var r *Request
	se.At(0, func() {
		// Two requests to different models: the second waits behind the
		// first's group and the model switch.
		if _, err := sys.SubmitLive(workload.Request{
			ID: "live-0", Model: models[0].Name, InputTokens: 2000, OutputTokens: 50,
		}, nil, nil); err != nil {
			t.Error(err)
		}
		var err error
		r, err = sys.SubmitLive(workload.Request{
			ID: "live-1", Model: models[1].Name, InputTokens: 100, OutputTokens: 50,
		}, func(int, sim.Time) { tokens++ }, nil)
		if err != nil {
			t.Error(err)
		}
	})
	se.At(time.Millisecond, func() { sys.Abort(r) })
	se.Run()
	if tokens != 0 {
		t.Fatalf("aborted-before-prefill request streamed %d tokens", tokens)
	}
	if r.Outcome != decision.OutcomeAborted {
		t.Fatal("request not aborted")
	}
	if sys.LiveInFlight() != 0 {
		t.Fatalf("LiveInFlight = %d", sys.LiveInFlight())
	}
}
