package aegaeon_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
	"time"

	"aegaeon"
	"aegaeon/internal/slomon"
)

// sloDigest is the sha256 of a snapshot's JSON encoding.
func sloDigest(t *testing.T, snap *slomon.Snapshot) string {
	t.Helper()
	if snap == nil {
		t.Fatal("no SLO snapshot in report")
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestSLOMonitorGolden pins the monitor's full output on two realistic runs,
// so a refactor of the window or alert machinery that moves a single count,
// burn rate or transition fails here.
func TestSLOMonitorGolden(t *testing.T) {
	t.Run("paper", func(t *testing.T) {
		// The paper testbed: 16xH800 as 6 prefill + 10 decode, 40 models.
		sys, err := aegaeon.New(aegaeon.Config{GPU: "H800", PrefillGPUs: 6, DecodeGPUs: 10,
			NumModels: 40, Seed: 1, SLOMonitor: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Serve(sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: 3 * time.Minute}))
		if err != nil {
			t.Fatal(err)
		}
		const want = "bad67b0ab10f20bf7dc47510b8b05124575acba16fa471feac7da3d3779cce24"
		if got := sloDigest(t, rep.SLO); got != want {
			t.Errorf("SLO snapshot digest = %s, want %s", got, want)
		}
	})
	t.Run("overload", func(t *testing.T) {
		// TestOverloadControlProtectsHighTier's shape: 8 models on 2+2 at 3x
		// load with a 20/30% high/low priority mix, so the brownout ladder
		// reads the monitor's burn rates and transitions.
		build := func() *aegaeon.System {
			sys, err := aegaeon.New(aegaeon.Config{PrefillGPUs: 2, DecodeGPUs: 2, NumModels: 8,
				Seed: 1, Overload: true})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		gen := build()
		trace := gen.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.9, Horizon: time.Minute})
		gen.AssignPriorities(trace, 0.2, 0.3)
		rep, err := build().Serve(trace)
		if err != nil {
			t.Fatal(err)
		}
		const want = "e30ce052aac5aed81b6b663bf7fe608f1811067b211cb969a33935a3b2f2dfb4"
		if got := sloDigest(t, rep.SLO); got != want {
			t.Errorf("SLO snapshot digest = %s, want %s", got, want)
		}
		// Each submitted request is counted once, however many of its
		// tokens were dropped.
		if c := rep.SLO.Fleet.Cumulative; c == nil || c.Requests != uint64(len(trace)) || len(trace) != 460 {
			t.Errorf("fleet cumulative %+v for %d submitted requests, want 460 requests", c, len(trace))
		}
		if rep.OverloadTransitions != 3 {
			t.Errorf("overload transitions = %d, want 3", rep.OverloadTransitions)
		}
	})
}

// TestSLOMonitorConvergesToTracker runs a steady workload with the live
// monitor on and cross-checks its windowed attainment against the offline
// slo.Tracker definition: with the whole run inside the slow window, the
// streamed token totals and the cumulative tracker must agree.
func TestSLOMonitorConvergesToTracker(t *testing.T) {
	sys, err := aegaeon.New(aegaeon.Config{
		PrefillGPUs: 2, DecodeGPUs: 2, NumModels: 4, SLOMonitor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: 4 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.SLO
	if snap == nil {
		t.Fatal("SLOMonitor config produced no Report.SLO block")
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("report snapshot invalid: %v", err)
	}
	if snap.Fleet.TokensMet == 0 {
		t.Fatal("monitor judged no tokens")
	}
	if snap.Fleet.Cumulative == nil {
		t.Fatal("fleet scope has no cumulative block")
	}

	// The default slow window (30m) covers the whole 4-minute run, so its
	// windowed attainment is the stream attainment; the cumulative tracker
	// judged the same tokens through the request-level mirror sites.
	scopes := append([]slomon.ScopeSnapshot{snap.Fleet}, snap.Models...)
	for _, sc := range scopes {
		label := sc.Model
		if label == "" {
			label = "fleet"
		}
		if sc.Cumulative == nil {
			t.Errorf("%s: no cumulative block", label)
			continue
		}
		var slow *slomon.WindowStats
		for i := range sc.Windowed {
			if sc.Windowed[i].Window == "slow" {
				slow = &sc.Windowed[i]
			}
		}
		if slow == nil {
			t.Fatalf("%s: no slow window", label)
		}
		if got, want := slow.Met+slow.Missed, sc.TokensMet+sc.TokensMissed; got != want {
			t.Errorf("%s: slow window holds %d tokens, stream saw %d — run escaped the window", label, got, want)
		}
		if diff := math.Abs(slow.Attainment - sc.Cumulative.Attainment); diff > 0.01 {
			t.Errorf("%s: windowed attainment %.4f vs cumulative %.4f (diff %.4f > 0.01)",
				label, slow.Attainment, sc.Cumulative.Attainment, diff)
		}
	}

	// The windowed and cumulative paths also agree on the SLO the report
	// computed for the run as a whole.
	if diff := math.Abs(rep.Attainment - snap.Fleet.Cumulative.Attainment); diff > 0.01 {
		t.Errorf("report attainment %.4f vs monitor cumulative %.4f", rep.Attainment, snap.Fleet.Cumulative.Attainment)
	}
}

// TestSLOMonitorAttributesEveryMiss overloads a small pool so switches stall
// requests past their deadlines, then checks the attribution contract: every
// missed token carries exactly one cause, the per-scope cause counters sum to
// the missed-token count, and the misses do not all fall through to unknown.
func TestSLOMonitorAttributesEveryMiss(t *testing.T) {
	sys, err := aegaeon.New(aegaeon.Config{
		PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 6, SLOMonitor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.3, Horizon: 2 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Switches == 0 {
		t.Fatal("6 models on 1+2 GPUs produced no switches")
	}
	snap := rep.SLO
	if snap == nil {
		t.Fatal("no SLO snapshot in report")
	}
	if snap.Fleet.TokensMissed == 0 {
		t.Skip("overloaded run produced no misses; attribution not exercised")
	}
	// Validate enforces sum(causes) == TokensMissed for every scope.
	if err := snap.Validate(); err != nil {
		t.Fatalf("attribution invariant broken: %v", err)
	}
	var attributed, unknown uint64
	for cause, n := range snap.Fleet.Causes {
		if cause == "unknown" {
			unknown += n
		} else {
			attributed += n
		}
	}
	if attributed == 0 {
		t.Errorf("all %d fleet misses classified unknown; span join found nothing", unknown)
	}
	// Model scopes partition the fleet's misses.
	var modelMissed uint64
	for _, sc := range snap.Models {
		modelMissed += sc.TokensMissed
	}
	if modelMissed != snap.Fleet.TokensMissed {
		t.Errorf("per-model misses sum to %d, fleet saw %d", modelMissed, snap.Fleet.TokensMissed)
	}
}
