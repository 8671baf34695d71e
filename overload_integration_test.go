package aegaeon_test

import (
	"math/rand"
	"testing"
	"time"

	"aegaeon"
	"aegaeon/internal/workload"
)

// TestOverloadControlProtectsHighTier is the end-to-end overload contract:
// the same 3x-capacity trace served with and without overload control. With
// control on, the high tier's attainment must beat the uncontrolled fleet
// number, typed sheds must appear, and every request must still reach a
// terminal state (completed + failed = submitted).
//
// The "capacity" case adds a third arm: the 1x trace served without control.
// There the overload must push the uncontrolled fleet below the 90% floor
// the controlled high tier holds, and controlled goodput must stay within
// 10% of what the fleet sustains at 1x.
func TestOverloadControlProtectsHighTier(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		// traces returns the 1x trace (nil when the case has no capacity
		// arm) and the 3x trace; gen is an uncontrolled system for names.
		traces func(gen *aegaeon.System) (base, hot []aegaeon.Request)
	}{
		{
			name: "hot",
			seed: 3,
			traces: func(gen *aegaeon.System) (base, hot []aegaeon.Request) {
				hot = gen.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.9, Horizon: time.Minute})
				gen.AssignPriorities(hot, 0.2, 0.3)
				return nil, hot
			},
		},
		{
			// 8 models on 2+2 H800 at 0.3 req/s per model and 3x that, 60 s,
			// 20/30% high/low tiers. Both traces come from an independent
			// seed, so the two overloaded arms serve identical requests.
			name: "capacity",
			seed: 1,
			traces: func(gen *aegaeon.System) (base, hot []aegaeon.Request) {
				var names []string
				for _, m := range gen.Models() {
					names = append(names, m.Name)
				}
				trace := func(rps float64) []aegaeon.Request {
					rng := rand.New(rand.NewSource(101))
					tr := workload.PoissonTrace(rng, names, rps, time.Minute, aegaeon.ShareGPT())
					workload.AssignPriorities(rng, tr, 0.2, 0.3)
					return tr
				}
				return trace(0.3), trace(0.9)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(overload bool) *aegaeon.System {
				sys, err := aegaeon.New(aegaeon.Config{
					PrefillGPUs: 2, DecodeGPUs: 2, NumModels: 8, Seed: tc.seed, Overload: overload,
				})
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			serve := func(overload bool, trace []aegaeon.Request) aegaeon.Report {
				rep, err := build(overload).Serve(trace)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}

			base, trace := tc.traces(build(false))
			unRep := serve(false, trace)
			ctlRep := serve(true, trace)

			if ctlRep.Completed+ctlRep.Failed != ctlRep.Requests {
				t.Fatalf("controlled run leaked requests: %d completed + %d failed != %d",
					ctlRep.Completed, ctlRep.Failed, ctlRep.Requests)
			}
			total := 0
			for _, n := range ctlRep.Sheds {
				total += n
			}
			if total == 0 {
				t.Fatal("3x overload shed nothing — control is not engaging")
			}
			hi, ok := ctlRep.AttainmentByPriority["high"]
			if !ok {
				t.Fatalf("no high-tier attainment in report: %v", ctlRep.AttainmentByPriority)
			}
			if hi <= unRep.Attainment {
				t.Fatalf("high tier %.4f not protected over uncontrolled fleet %.4f", hi, unRep.Attainment)
			}
			if hi < 0.9 {
				t.Fatalf("high-tier attainment %.4f below the 90%% overload floor", hi)
			}
			if low := ctlRep.AttainmentByPriority["low"]; low >= hi {
				t.Fatalf("low tier %.4f not degraded below high %.4f — tiers are not differentiating", low, hi)
			}
			if ctlRep.OverloadLevel == "" {
				t.Fatal("controlled run reported no overload level")
			}
			if ctlRep.OverloadTransitions == 0 {
				t.Fatal("brownout controller never left normal under 3x load")
			}
			t.Logf("uncontrolled fleet %.2f%%; controlled high %.2f%% low %.2f%%, level %s, sheds %v",
				100*unRep.Attainment, 100*hi, 100*ctlRep.AttainmentByPriority["low"],
				ctlRep.OverloadLevel, ctlRep.Sheds)
			if base == nil {
				return
			}

			capRep := serve(false, base)
			for _, arm := range []struct {
				name   string
				factor float64
				rep    aegaeon.Report
			}{{"capacity", 1, capRep}, {"uncontrolled", 3, unRep}, {"controlled", 3, ctlRep}} {
				// Without overload control there are no per-tier trackers; the
				// fleet number stands in for every tier, high included.
				hiPri, ok := arm.rep.AttainmentByPriority["high"]
				if !ok {
					hiPri = arm.rep.Attainment
				}
				t.Logf("%-12s  %3.1fx load  %5d req  attainment %6.2f%%  hi-pri %6.2f%%  %8.1f tok/s",
					arm.name, arm.factor, arm.rep.Requests, 100*arm.rep.Attainment, 100*hiPri,
					float64(arm.rep.GeneratedTokens)/time.Minute.Seconds())
			}
			if unRep.Attainment >= 0.9 {
				t.Errorf("uncontrolled attainment %.2f%% already at the 90%% floor — the overload is not overloading",
					100*unRep.Attainment)
			}
			if float64(ctlRep.GeneratedTokens) < 0.9*float64(capRep.GeneratedTokens) {
				t.Errorf("controlled goodput %d tokens below 90%% of capacity %d tokens",
					ctlRep.GeneratedTokens, capRep.GeneratedTokens)
			}
		})
	}
}
