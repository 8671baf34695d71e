package aegaeon

import (
	"runtime"
	"testing"
	"time"
)

// TestObserverAllocBudget serves the paper testbed (16 H800s as 6+10, 40
// models at 0.1 req/s) on a five-minute horizon with the collector, the SLO
// monitor, the decision journal and the fleet ledger on, then with all of
// them off, and holds the heap bytes and the heap objects Serve allocates
// per request under budgets. The simulator is deterministic, so both repeat
// to within the runtime's own allocations. Each budget is the figure
// measured under the race detector, whose runtime allocates a little more
// per request (2.22 KiB and 7.7 objects against 1.99 and 6.8 with observers
// off), plus 10%. The observers record into storage they recycle: their
// bounded buffers are allocated once, in chunks, and the five-minute horizon
// spreads that fixed cost over about 1,200 requests, so it dominates the
// observers-on budgets: a record, switch or timeline buffer that is
// allocated again per decision or per request shows (one object per request
// is 8% of the objects budget). With observers off the switch and KV-swap
// path allocates nothing once warm, and slabs carve their block state from
// one arena per pool, so the few objects left per request are the request's
// own (its record, KV sequence and block list, and prefill completion), the
// report's latency samples, and pools growing to their peak (decode batches,
// KV transfers, slab free lists): a closure or event allocated again per
// switch, swap or decode turn, or a state slice per slab acquired, fails the
// objects budget, and storing every token's time again (about 3 KiB per
// request) fails the bytes budget. Not parallel: the process-wide allocation
// counters would count other tests' work.
func TestObserverAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name      string
		observers bool
		maxKiB    float64 // heap KiB per request
		maxAllocs float64 // heap objects per request
	}{
		{"observers on", true, 31.59 * 1.1, 11.8 * 1.1},
		{"observers off", false, 2.22 * 1.1, 7.7 * 1.1},
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
		allocs := float64(after.Mallocs-before.Mallocs) / float64(len(trace))
		t.Logf("%s: %d requests, %.2f KiB/req, %.1f allocs/req", c.name, len(trace), kib, allocs)
		if kib > c.maxKiB {
			t.Errorf("%s: Serve allocated %.2f KiB per request, budget %.2f", c.name, kib, c.maxKiB)
		}
		if allocs > c.maxAllocs {
			t.Errorf("%s: Serve allocated %.1f objects per request, budget %.1f", c.name, allocs, c.maxAllocs)
		}
	}
}
