package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/model"
	"aegaeon/internal/overload"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// pinController returns a controller escalated to the given level and pinned
// there: it escalates at a virtual time far past any test horizon, so the
// run's own steps, all earlier, can neither escalate nor recover it.
func pinController(level overload.Level) *overload.Controller {
	ctl := overload.NewController()
	for at := sim.Time(1 << 62); ctl.Level() < level; at += time.Minute {
		ctl.Step(at, overload.Signals{Page: true})
	}
	return ctl
}

// TestAbortWhileQueuedReleasesEverything is the admission-release regression:
// a request aborted while still queued for prefill must release its admission
// slot, hold no KV reservation, and land in exactly one terminal state — and
// a request aborted mid-decode must return its KV through the reclaim
// (not completion-free) path.
func TestAbortWhileQueuedReleasesEverything(t *testing.T) {
	models := model.MarketMix(2)
	se := sim.NewEngine(1)
	sys := NewSystem(se, testConfig(models, engine.AllOptimizations(), 1, 1))

	var queuedTokens, decodeTokens int
	var queued, decoding *Request
	se.At(0, func() {
		// A long prefill to model 0 keeps the instance busy so the second
		// request (a different model, behind a switch) stays queued.
		var err error
		decoding, err = sys.SubmitLive(workload.Request{
			ID: "live-decode", Model: models[0].Name, InputTokens: 2000, OutputTokens: 4000,
		}, func(int, sim.Time) { decodeTokens++ }, nil)
		if err != nil {
			t.Error(err)
		}
		queued, err = sys.SubmitLive(workload.Request{
			ID: "live-queued", Model: models[1].Name, InputTokens: 100, OutputTokens: 50,
		}, func(int, sim.Time) { queuedTokens++ }, nil)
		if err != nil {
			t.Error(err)
		}
		if sys.LiveInFlight() != 2 {
			t.Errorf("LiveInFlight = %d after two submissions", sys.LiveInFlight())
		}
	})
	se.At(time.Millisecond, func() {
		if queued.Seq != nil {
			t.Error("queued request should hold no KV before prefill")
		}
		sys.Abort(queued)
	})
	se.At(30*time.Second, func() {
		if decoding.Generated() == 0 {
			t.Error("decode-phase request made no progress")
		}
		sys.Abort(decoding)
	})
	se.Run()

	for _, r := range []*Request{queued, decoding} {
		if r.Outcome != decision.OutcomeAborted {
			t.Fatalf("%s: outcome %q, want aborted", r.ID, r.Outcome)
		}
		if r.Seq != nil {
			t.Fatalf("%s still holds a KV sequence", r.ID)
		}
	}
	if queuedTokens != 0 {
		t.Fatalf("queued-then-aborted request streamed %d tokens", queuedTokens)
	}
	if sys.LiveInFlight() != 0 {
		t.Fatalf("LiveInFlight = %d — admission slots leaked", sys.LiveInFlight())
	}
	for _, e := range sys.Engines() {
		if used := e.KV().GPUCache.Pool().UsedBytes(); used != 0 {
			t.Fatalf("instance %s leaks %d KV bytes", e.Name, used)
		}
	}
	if used := sys.cpuKV.Pool().UsedBytes(); used != 0 {
		t.Fatalf("cpu KV leaks %d bytes", used)
	}
	// The mid-decode abort went through the reclaim path, visibly.
	if got := sys.prefills[0].eng.KV().Stats().AbortReclaims; got == 0 {
		t.Fatal("mid-decode abort did not count an AbortReclaim")
	}
}

// TestShedLowPriorityTier pins the controller at shed-low and checks the
// tier policy: low priority is rejected with a typed reason (stream notified,
// misses charged to the low tier's tracker), normal and high are admitted.
func TestShedLowPriorityTier(t *testing.T) {
	models := model.MarketMix(1)
	se := sim.NewEngine(1)
	cfg := testConfig(models, engine.AllOptimizations(), 1, 1)
	cfg.Overload = pinController(overload.LevelShedLow)
	sys := NewSystem(se, cfg)

	var lowDone *Request
	se.At(0, func() {
		r, err := sys.SubmitLive(workload.Request{
			ID: "low-0", Model: models[0].Name, InputTokens: 64, OutputTokens: 16,
			Priority: workload.PriorityLow,
		}, nil, func(r *Request) { lowDone = r })
		if err != nil {
			t.Error(err)
		}
		if r.Outcome != decision.OutcomeFailed {
			t.Error("low-priority request admitted at shed-low")
		}
		hi, err := sys.SubmitLive(workload.Request{
			ID: "hi-0", Model: models[0].Name, InputTokens: 64, OutputTokens: 16,
			Priority: workload.PriorityHigh,
		}, nil, nil)
		if err != nil {
			t.Error(err)
		}
		if hi.Outcome == decision.OutcomeFailed {
			t.Errorf("high-priority request shed at shed-low: %s", hi.FailReason)
		}
	})
	se.Run()

	if lowDone == nil {
		t.Fatal("shed request did not fire OnDone")
	}
	if !strings.HasPrefix(lowDone.FailReason, "overload: ") {
		t.Fatalf("shed reason %q is not typed", lowDone.FailReason)
	}
	if got := sys.OverloadSheds()[ShedLowPriority]; got != 1 {
		t.Fatalf("sheds[%s] = %d, want 1", ShedLowPriority, got)
	}
	if low := sys.tiers[workload.PriorityLow]; low.Met != 0 || low.Missed == 0 {
		t.Fatalf("low-tier tokens (met=%d, missed=%d): shed tokens must count as misses", low.Met, low.Missed)
	}
	if missed := sys.tiers[workload.PriorityHigh].Missed; missed != 0 {
		t.Fatalf("high tier charged %d misses while protected", missed)
	}
	if sys.LiveInFlight() != 0 {
		t.Fatalf("LiveInFlight = %d", sys.LiveInFlight())
	}
}

// TestFreezeAndAdmitNoneLevels checks the deeper rungs: freeze sheds only
// cold-model work, admit-none sheds everything.
func TestFreezeAndAdmitNoneLevels(t *testing.T) {
	models := model.MarketMix(2)
	se := sim.NewEngine(1)
	cfg := testConfig(models, engine.AllOptimizations(), 1, 1)
	ctl := overload.NewController()
	cfg.Overload = ctl
	sys := NewSystem(se, cfg)

	se.At(0, func() {
		// Make model 0 resident before the brownout deepens.
		if _, err := sys.SubmitLive(workload.Request{
			ID: "boot", Model: models[0].Name, InputTokens: 64, OutputTokens: 4,
		}, nil, nil); err != nil {
			t.Error(err)
		}
	})
	se.At(20*time.Second, func() {
		// One page per escalation hold, all before now.
		for at := 5 * time.Second; ctl.Level() < overload.LevelFreeze; at += 5 * time.Second {
			ctl.Step(at, overload.Signals{Page: true})
		}
		warm, err := sys.SubmitLive(workload.Request{
			ID: "warm", Model: models[0].Name, InputTokens: 64, OutputTokens: 4,
		}, nil, nil)
		if err != nil {
			t.Error(err)
		}
		if warm.Outcome == decision.OutcomeFailed {
			t.Errorf("warm-model request shed at freeze: %s", warm.FailReason)
		}
		cold, err := sys.SubmitLive(workload.Request{
			ID: "cold", Model: models[1].Name, InputTokens: 64, OutputTokens: 4,
		}, nil, nil)
		if err != nil {
			t.Error(err)
		}
		if cold.Outcome != decision.OutcomeFailed || !strings.Contains(cold.FailReason, ShedColdFreeze) {
			t.Errorf("cold-model request not frozen out: outcome %q reason=%q", cold.Outcome, cold.FailReason)
		}
	})
	se.Run()

	se2 := sim.NewEngine(1)
	cfg2 := testConfig(models, engine.AllOptimizations(), 1, 1)
	cfg2.Overload = pinController(overload.LevelAdmitNone)
	sys2 := NewSystem(se2, cfg2)
	se2.At(0, func() {
		r, err := sys2.SubmitLive(workload.Request{
			ID: "any", Model: models[0].Name, InputTokens: 64, OutputTokens: 4,
			Priority: workload.PriorityHigh,
		}, nil, nil)
		if err != nil {
			t.Error(err)
		}
		if r.Outcome != decision.OutcomeFailed || !strings.Contains(r.FailReason, ShedAdmitNone) {
			t.Errorf("admit-none let a request through: outcome %q reason=%q", r.Outcome, r.FailReason)
		}
	})
	se2.Run()
	if got := sys2.OverloadSheds()[ShedAdmitNone]; got != 1 {
		t.Fatalf("sheds[%s] = %d, want 1", ShedAdmitNone, got)
	}
}

// TestReaperShedsDoomedInQueue overloads one prefill instance far past a
// tight TTFT target and checks that deadline-aware control (doomed-on-arrival
// rejection plus the mid-queue reaper) sheds infeasible work instead of
// letting it hang, that priority ordering serves high-tier groups first, and
// that every request still reaches exactly one terminal state with all KV
// returned.
func TestReaperShedsDoomedInQueue(t *testing.T) {
	models := model.MarketMix(4)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(3))
	trace := workload.PoissonTrace(rng, names, 1.5, 30*time.Second, workload.ShareGPT())
	workload.AssignPriorities(rand.New(rand.NewSource(4)), trace, 0.2, 0.3)

	se := sim.NewEngine(1)
	cfg := testConfig(models, engine.AllOptimizations(), 1, 1)
	cfg.SLO = slo.SLO{TTFT: 3 * time.Second, TBT: 100 * time.Millisecond}
	cfg.Overload = overload.NewController()
	sys := NewSystem(se, cfg)
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	se.Run()
	sys.Finalize(se.Now())

	sheds := sys.OverloadSheds()
	if sheds[ShedDoomed]+sheds[ShedReaped] == 0 {
		t.Fatalf("no doomed requests shed at 4 models on 1 prefill GPU with a 3s TTFT: %v", sheds)
	}
	total, aborted := 0, 0
	for _, r := range sys.Requests() {
		if r.Outcome == decision.OutcomeAborted {
			aborted++
		}
		if r.Outcome == "" {
			t.Fatalf("%s reached no terminal state", r.ID)
		}
		if r.Seq != nil && r.Outcome == decision.OutcomeFailed {
			t.Fatalf("%s shed but still holds KV", r.ID)
		}
		total++
	}
	if got := sys.Completed() + sys.FailedRequests() + aborted; got != total {
		t.Fatalf("terminal counts %d != %d requests", got, total)
	}
	if used := sys.cpuKV.Pool().UsedBytes(); used != 0 {
		t.Fatalf("cpu KV leaks %d bytes", used)
	}
}
