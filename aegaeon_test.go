package aegaeon

import (
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := New(Config{PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 4})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.1, Horizon: 2 * time.Minute})
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Requests {
		t.Fatalf("completed %d/%d", rep.Completed, rep.Requests)
	}
	if rep.Attainment < 0.9 {
		t.Fatalf("attainment = %.3f", rep.Attainment)
	}
	if rep.Switches == 0 {
		t.Fatal("no auto-scaling happened with 4 models on 2 decode GPUs")
	}
}

func TestSystemIsSingleUse(t *testing.T) {
	sys, err := New(Config{PrefillGPUs: 1, DecodeGPUs: 1, NumModels: 1})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.05, Horizon: 30 * time.Second})
	if _, err := sys.Serve(trace); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Serve(trace); err == nil {
		t.Fatal("second Serve accepted")
	}
}

func TestUnknownGPURejected(t *testing.T) {
	if _, err := New(Config{GPU: "V100"}); err == nil {
		t.Fatal("unknown GPU accepted")
	}
}

func TestBaselineComparison(t *testing.T) {
	sys, err := New(Config{PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.1, Horizon: 2 * time.Minute})
	for _, b := range []Baseline{ServerlessLLM, ServerlessLLMPlus, MuxServe} {
		rep, err := sys.ServeBaseline(b, trace)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if rep.Attainment < 0 || rep.Attainment > 1 {
			t.Fatalf("%s attainment = %.3f", b, rep.Attainment)
		}
	}
	if _, err := sys.ServeBaseline("vLLM", trace); err == nil {
		t.Fatal("unknown baseline accepted")
	}
	// The headline direction: Aegaeon >= MuxServe on 6 models / 3 GPUs
	// (MuxServe cannot place them all).
	aeg, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	mux, _ := sys.ServeBaseline(MuxServe, trace)
	if aeg.Attainment < mux.Attainment {
		t.Fatalf("Aegaeon %.3f < MuxServe %.3f on an over-committed pool",
			aeg.Attainment, mux.Attainment)
	}
}

func TestCustomModelsAndSLO(t *testing.T) {
	models := MarketModels(2)
	sys, err := New(Config{
		PrefillGPUs: 1, DecodeGPUs: 1,
		Models: models,
		SLO:    DefaultSLO().Scale(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Models()) != 2 {
		t.Fatalf("models = %d", len(sys.Models()))
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.05, Horizon: time.Minute, Dataset: ShareGPTOx2()})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Requests {
		t.Fatalf("completed %d/%d", rep.Completed, rep.Requests)
	}
}

func TestCatalogExposed(t *testing.T) {
	if len(Catalog()) < 8 {
		t.Fatalf("catalog has %d models", len(Catalog()))
	}
}

func TestFaultSpecServe(t *testing.T) {
	sys, err := New(Config{
		PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 4,
		Faults: "crash@40s:decode0,fetchslow@60s+20s*4",
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.1, Horizon: 2 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsInjected != 2 {
		t.Fatalf("injected %d faults, want 2", rep.FaultsInjected)
	}
	if rep.Faults.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", rep.Faults.Crashes)
	}
	// One decode survivor remains: the crash recovers, nothing is lost.
	if rep.Completed+rep.Failed != rep.Requests {
		t.Fatalf("completed %d + failed %d != %d requests", rep.Completed, rep.Failed, rep.Requests)
	}
	if rep.Failed != 0 {
		t.Fatalf("failed %d requests despite a surviving decode instance", rep.Failed)
	}
}

func TestBadFaultSpecRejected(t *testing.T) {
	if _, err := New(Config{Faults: "explode@now"}); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}

func TestStoreFaultNeedsCluster(t *testing.T) {
	sys, err := New(Config{PrefillGPUs: 1, DecodeGPUs: 1, NumModels: 1, Faults: "partition@10s+5s"})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.05, Horizon: 30 * time.Second})
	if _, err := sys.Serve(trace); err == nil {
		t.Fatal("partition fault injected with no metadata store to partition")
	}
}

func TestPrefixCacheFlow(t *testing.T) {
	sys, err := New(Config{PrefillGPUs: 2, DecodeGPUs: 2, NumModels: 2, PrefixRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{
		RatePerModel: 0.03, Horizon: 3 * time.Minute, Workload: MultiTurn,
	})
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	sawSession := false
	for _, r := range trace {
		if r.SessionID != "" && r.Turn > 0 {
			sawSession = true
		}
	}
	if !sawSession {
		t.Fatal("multi-turn trace drew no later turns")
	}
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prefix == nil {
		t.Fatal("prefix-enabled run reported no prefix stats")
	}
	if rep.Prefix.Hits == 0 || rep.Prefix.TokensSaved == 0 {
		t.Fatalf("multi-turn trace never hit the cache: %+v", rep.Prefix)
	}
	if rep.Prefix.PinnedEntries != 0 {
		t.Fatalf("%d entries pinned after drain", rep.Prefix.PinnedEntries)
	}

	// Without the flag the report stays clean.
	plain, err := New(Config{PrefillGPUs: 1, DecodeGPUs: 1, NumModels: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := plain.Serve(plain.GenerateTrace(TraceSpec{RatePerModel: 0.05, Horizon: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Prefix != nil {
		t.Fatal("prefix stats reported with the cache disabled")
	}
}

// TestPrefixSessionsVictimChoice pins every eviction victim on a realistic
// trace: multi-turn chat with cache-aware routing on the paper's testbed
// (16×H800 as 6+10, 40 models, 0.02 sessions/s per model, 128-token system
// prompt, 3 min, seed 1), where promotion runs the device tier at its budget.
// Any change in which entry is evicted moves these counters.
func TestPrefixSessionsVictimChoice(t *testing.T) {
	sys, err := New(Config{GPU: "H800", PrefillGPUs: 6, DecodeGPUs: 10, NumModels: 40, Seed: 1, PrefixRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.02, Horizon: 3 * time.Minute,
		Workload: MultiTurn, SystemPromptTokens: 128})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	px := rep.Prefix
	if px == nil {
		t.Fatal("prefix-enabled run reported no prefix stats")
	}
	got := []uint64{sys.EventsProcessed(), px.DeviceEvictions, px.Promotions, px.HostEvictions, uint64(rep.MeanTTFT)}
	want := []uint64{152_514, 14_742, 16_390, 0, 871_496_849}
	names := []string{"events", "device evictions", "promotions", "host evictions", "mean TTFT ns"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s = %d, want %d", names[i], got[i], want[i])
		}
	}
}
