package aegaeon

import (
	"math/rand"
	"testing"
	"time"

	"aegaeon/internal/workload"
)

// The full spot-market flow through the public API: heterogeneous classes,
// spot pricing, a reclaim delivered via the fault-spec grammar, and the
// market snapshot joined against the fleet ledger in the report.
func TestMarketReclaimThroughPublicAPI(t *testing.T) {
	sys, err := New(Config{
		PrefillGPUs: 1, DecodeGPUs: 3,
		Models:        SmallModels(6),
		Market:        true,
		MarketClasses: "H800,A10",
		MarketSpot:    true,
		Faults:        "reclaim@45s+5s:decode1,throttle@20s+15s*4:decode0",
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.3, Horizon: 2 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Requests {
		t.Fatalf("completed %d/%d through a reclaim", rep.Completed, rep.Requests)
	}
	if rep.FaultsInjected != 2 {
		t.Fatalf("faults injected = %d, want 2", rep.FaultsInjected)
	}
	m := rep.Market
	if m == nil {
		t.Fatal("Report.Market nil with Config.Market set")
	}
	if !m.Spot || !m.Aware {
		t.Fatalf("snapshot spot=%v aware=%v", m.Spot, m.Aware)
	}
	if m.Stats.Preemptions != 1 || m.Stats.Revocations != 1 {
		t.Fatalf("preemptions=%d revocations=%d", m.Stats.Preemptions, m.Stats.Revocations)
	}
	if m.Stats.EvacuatedKVBytes == 0 {
		t.Fatal("aware reclaim evacuated no KV")
	}
	if m.Stats.Throttles != 1 {
		t.Fatalf("throttles = %d", m.Stats.Throttles)
	}
	if m.Stats.PriceTicks == 0 {
		t.Fatal("spot pricing ticked zero times")
	}
	if len(m.Devices) != 4 {
		t.Fatalf("%d devices in snapshot", len(m.Devices))
	}
	// Market implies fleet accounting, and class economics must join against
	// it: two classes, each with cost and tokens.
	if rep.Fleet == nil {
		t.Fatal("Config.Market did not imply FleetAccounting")
	}
	if len(m.Classes) != 2 {
		t.Fatalf("%d classes, want 2 (H800, A10)", len(m.Classes))
	}
	for _, c := range m.Classes {
		if c.CostDollars <= 0 {
			t.Fatalf("class %s has no cost integral", c.Class)
		}
		if c.Tokens == 0 || c.DollarsPer1KTokens <= 0 {
			t.Fatalf("class %s: tokens=%d $/1k=%v", c.Class, c.Tokens, c.DollarsPer1KTokens)
		}
	}
}

// Reliable arm: market on, spot off. Flat on-demand rates, no reclaim risk,
// and reclaim faults are still deliverable (a reserved device can be taken
// back too — e.g. maintenance), priced at on-demand.
func TestMarketReliableArmFlatRates(t *testing.T) {
	sys, err := New(Config{
		PrefillGPUs: 1, DecodeGPUs: 2,
		Models: SmallModels(4),
		Market: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.1, Horizon: time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Market
	if m == nil {
		t.Fatal("Report.Market nil")
	}
	if m.Spot || m.Stats.PriceTicks != 0 {
		t.Fatalf("reliable arm: spot=%v ticks=%d", m.Spot, m.Stats.PriceTicks)
	}
	for _, d := range m.Devices {
		if d.RateDollarsPerHour != 12.0 { // H800 on-demand
			t.Fatalf("device %s rate %v, want flat on-demand 12.0", d.Device, d.RateDollarsPerHour)
		}
		if !d.Eligible {
			t.Fatalf("device %s ineligible in reliable arm", d.Device)
		}
	}
}

// Spot-naive arm: reclaim loses GPU-resident KV to the crash path, and the
// run still completes via recovery.
func TestMarketNaiveArmLosesKV(t *testing.T) {
	sys, err := New(Config{
		PrefillGPUs: 1, DecodeGPUs: 3,
		Models:      SmallModels(6),
		Market:      true,
		MarketSpot:  true,
		MarketNaive: true,
		Faults:      "reclaim@45s+5s:decode1",
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.3, Horizon: 2 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Requests {
		t.Fatalf("completed %d/%d", rep.Completed, rep.Requests)
	}
	m := rep.Market
	if m.Aware {
		t.Fatal("naive arm reported aware")
	}
	if m.Stats.EvacuatedKVBytes != 0 {
		t.Fatalf("naive arm evacuated %d bytes", m.Stats.EvacuatedKVBytes)
	}
	if m.Stats.LostKVBytes == 0 {
		t.Fatal("naive reclaim lost nothing — instance idle at t=45s?")
	}
	if m.Stats.DeadlinesMissed != 1 {
		t.Fatalf("deadlines missed = %d", m.Stats.DeadlinesMissed)
	}
}

// TestMarketSpotAwareBeatsNaive serves one trace on three arms of the spot
// market: a reliable on-demand H800 pool, and H800/A10 spot pools that ignore
// (spot_naive) or act on (spot_aware) two mid-run reclaim notices on decode
// instances. The fleet is SmallModels(6) on 1+4 at 0.3 req/s per model,
// ShareGPT-ix2, 2 min, seed 1, with the trace from an independent seed. Both
// spot arms see the same reclaims; spot_aware must lose at most half the KV
// bytes spot_naive loses, without an attainment or $-per-1k-tokens
// regression, and every class it ran must price its tokens.
func TestMarketSpotAwareBeatsNaive(t *testing.T) {
	const reclaims = "reclaim@48s+5s:decode1,reclaim@84s+5s:decode3"
	models := SmallModels(6)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	trace := workload.PoissonTrace(rand.New(rand.NewSource(101)), names, 0.3, 2*time.Minute, ShareGPTIx2())

	type arm struct {
		rep  Report
		perK float64 // fleet $ per 1k generated tokens
	}
	serve := func(name, classes, faults string, spot, naive bool) arm {
		sys, err := New(Config{
			PrefillGPUs: 1, DecodeGPUs: 4, Models: models, Seed: 1,
			Market: true, MarketClasses: classes, MarketSpot: spot, MarketNaive: naive,
			Faults: faults,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := sys.Serve(trace)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Market == nil || rep.Fleet == nil || rep.GeneratedTokens == 0 {
			t.Fatalf("%s: market %v, fleet %v, %d tokens", name, rep.Market != nil, rep.Fleet != nil, rep.GeneratedTokens)
		}
		a := arm{rep: rep, perK: rep.Fleet.Fleet.CostDollars / float64(rep.GeneratedTokens) * 1000}
		st := rep.Market.Stats
		t.Logf("%-10s  %5d req  attainment %6.2f%%  lost %8.1fMB  evac %8.1fMB  $%.4f  $%.4f/1k",
			name, rep.Requests, 100*rep.Attainment,
			float64(st.LostKVBytes)/(1<<20), float64(st.EvacuatedKVBytes)/(1<<20),
			rep.Fleet.Fleet.CostDollars, a.perK)
		return a
	}
	reliable := serve("reliable", "H800", "", false, false)
	naive := serve("spot_naive", "H800,A10", reclaims, true, true)
	aware := serve("spot_aware", "H800,A10", reclaims, true, false)
	rs, ns, as := reliable.rep.Market.Stats, naive.rep.Market.Stats, aware.rep.Market.Stats

	if ns.Preemptions != 2 || as.Preemptions != 2 {
		t.Errorf("both spot arms must see 2 preemptions (naive %d, aware %d)", ns.Preemptions, as.Preemptions)
	}
	if ns.LostKVBytes == 0 {
		t.Error("spot_naive lost no KV — the reclaims landed on idle instances")
	}
	if as.EvacuatedKVBytes == 0 {
		t.Error("spot_aware evacuated no KV ahead of its deadlines")
	}
	if as.LostKVBytes*2 > ns.LostKVBytes {
		t.Errorf("spot_aware lost %d KV bytes, more than half of spot_naive's %d", as.LostKVBytes, ns.LostKVBytes)
	}
	if aware.rep.Attainment < naive.rep.Attainment {
		t.Errorf("spot_aware attainment %.2f%% regressed below spot_naive %.2f%%",
			100*aware.rep.Attainment, 100*naive.rep.Attainment)
	}
	if aware.perK > naive.perK {
		t.Errorf("spot_aware $%.4f/1k costs more than spot_naive $%.4f/1k", aware.perK, naive.perK)
	}
	if len(aware.rep.Market.Classes) == 0 || len(naive.rep.Market.Classes) == 0 {
		t.Error("per-class economics missing from the spot arms")
	}
	for _, c := range aware.rep.Market.Classes {
		if c.DollarsPer1KTokens <= 0 {
			t.Errorf("spot_aware class %s has no $-per-1k-tokens (tokens %d, cost $%.4f)",
				c.Class, c.Tokens, c.CostDollars)
		}
	}
	if rs.Preemptions != 0 || rs.LostKVBytes != 0 {
		t.Errorf("reliable arm saw %d preemptions, lost %d KV bytes", rs.Preemptions, rs.LostKVBytes)
	}
}

// Reclaim faults without a market model must be rejected at injection.
func TestReclaimFaultNeedsMarket(t *testing.T) {
	sys, err := New(Config{
		PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 4,
		Faults: "reclaim@30s+5s:decode0",
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.05, Horizon: time.Minute})
	if _, err := sys.Serve(trace); err == nil {
		t.Fatal("reclaim injected without Config.Market")
	}
}
