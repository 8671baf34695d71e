package aegaeon

import (
	"testing"
	"time"

	"aegaeon/internal/slo"
)

// TestSLOJudgementSums: core judges each request once and folds the verdict
// into every sink, so on the overload and faulted golden shapes the
// per-tier token counts sum to the core tracker's, every submitted request
// is counted once, and the monitor's per-model cumulative blocks sum to its
// fleet block in tokens and requests.
func TestSLOJudgementSums(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		spec  TraceSpec
		tiers bool // stamp TestSLOMonitorGolden's 20/30% high/low mix
	}{
		{"overload", Config{PrefillGPUs: 2, DecodeGPUs: 2, NumModels: 8, Seed: 1, Overload: true},
			TraceSpec{RatePerModel: 0.9, Horizon: time.Minute}, true},
		{"faulted", Config{GPU: "H800", PrefillGPUs: 6, DecodeGPUs: 10, NumModels: 40, Seed: 1,
			SLOMonitor: true, Faults: "crash@60s:decode0,xfer@90s+10s:decode1"},
			TraceSpec{RatePerModel: 0.1, Horizon: 5 * time.Minute}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			build := func() *System {
				sys, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			gen := build()
			trace := gen.GenerateTrace(tc.spec)
			if tc.tiers {
				gen.AssignPriorities(trace, 0.2, 0.3)
			}
			sys := build()
			rep, err := sys.Serve(trace)
			if err != nil {
				t.Fatal(err)
			}

			var tiers slo.Counts
			judged := 0
			for _, c := range sys.sys.TierTokens() {
				tiers.Met += c.Met
				tiers.Missed += c.Missed
				if c.Met+c.Missed > 0 {
					judged++
				}
			}
			if tc.tiers && judged < 2 {
				t.Errorf("only %d tiers judged tokens; the mix should spread them", judged)
			}
			met, missed := sys.sys.Tracker().Tokens()
			if tiers != (slo.Counts{Met: met, Missed: missed}) {
				t.Errorf("tiers sum to %+v, tracker holds %d met, %d missed", tiers, met, missed)
			}
			if n := sys.sys.Tracker().Requests(); n != uint64(len(trace)) {
				t.Errorf("tracker counted %d requests, %d submitted", n, len(trace))
			}

			fleet := rep.SLO.Fleet.Cumulative
			if fleet == nil || fleet.Requests != uint64(len(trace)) {
				t.Fatalf("fleet cumulative %+v, want %d requests", fleet, len(trace))
			}
			type blocks struct{ requests, met, missed uint64 }
			var sum blocks
			for _, sc := range rep.SLO.Models {
				if c := sc.Cumulative; c != nil {
					sum.requests += c.Requests
					sum.met += c.TokensMet
					sum.missed += c.TokensMissed
				}
			}
			if want := (blocks{fleet.Requests, fleet.TokensMet, fleet.TokensMissed}); sum != want {
				t.Errorf("model cumulative blocks sum to %+v, fleet holds %+v", sum, want)
			}
		})
	}
}
