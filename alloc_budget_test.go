package aegaeon

import (
	"runtime"
	"testing"
	"time"
)

// TestObserverAllocBudget serves the paper testbed (16 H800s as 6+10, 40
// models at 0.1 req/s) on a five-minute horizon with the collector, the SLO
// monitor, the decision journal and the fleet ledger on, then with all of
// them off, and holds the heap bytes Serve allocates per request under a
// budget. The simulator is deterministic, so the bytes repeat to within the
// runtime's own allocations; each budget is the measured figure plus 10%.
// The observers' bounded buffers are allocated once at their bounds, and
// the five-minute horizon spreads that fixed cost over about 1,200
// requests, so it dominates the observers-on budget: a buffer that regrows
// or is rebuilt per request shows. The observers-off budget is tight enough
// that storing every token's time again (about 3 KiB per request) fails it.
// Not parallel: the process-wide
// allocation counter would count other tests' work.
func TestObserverAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name      string
		observers bool
		maxKiB    float64 // heap KiB per request
	}{
		{"observers on", true, 37.77 * 1.1},
		{"observers off", false, 3.75 * 1.1},
	} {
		sys, err := New(Config{GPU: "H800", PrefillGPUs: 6, DecodeGPUs: 10, NumModels: 40, Seed: 1,
			Tracing: c.observers, SLOMonitor: c.observers, Decisions: c.observers, FleetAccounting: c.observers})
		if err != nil {
			t.Fatal(err)
		}
		trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.1, Horizon: 5 * time.Minute})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sys.Serve(trace); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(trace))
		t.Logf("%s: %d requests, %.2f KiB/req, %.1f allocs/req", c.name, len(trace), kib,
			float64(after.Mallocs-before.Mallocs)/float64(len(trace)))
		if kib > c.maxKiB {
			t.Errorf("%s: Serve allocated %.2f KiB per request, budget %.2f", c.name, kib, c.maxKiB)
		}
	}
}
