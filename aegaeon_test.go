package aegaeon

import (
	"math/rand"
	"testing"
	"time"

	"aegaeon/internal/workload"
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
	turns := map[string]int{}
	for _, r := range trace {
		if r.SessionID != "" {
			turns[r.SessionID]++
			sawSession = sawSession || turns[r.SessionID] > 1
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

// TestPrefixRoutingDominatesNoCache serves three prefix-heavy workloads on
// two arms over byte-identical traces: the prefix cache off (nocache), and
// on with its cache-aware prefill routing (cache_routing). The fleet is 4
// models on 2+2 H800 at 0.03 sessions/s per model for 5 min, seed 1, with
// traces from an independent seed. On every workload cache_routing must
// save prefill tokens, beat nocache on mean TTFT and not regress
// attainment; on sharedprompt it must save at least 30% of prefill tokens.
func TestPrefixRoutingDominatesNoCache(t *testing.T) {
	const (
		rate    = 0.03
		horizon = 5 * time.Minute
		floor   = 0.3
	)
	build := func(routing bool) *System {
		sys, err := New(Config{PrefillGPUs: 2, DecodeGPUs: 2, NumModels: 4, Seed: 1, PrefixRouting: routing})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	var names []string
	for _, m := range build(false).Models() {
		names = append(names, m.Name)
	}
	ds := ShareGPT()
	for _, w := range []struct {
		name  string
		trace func(rng *rand.Rand) []Request
	}{
		{"multiturn", func(rng *rand.Rand) []Request {
			return workload.MultiTurnTrace(rng, names, rate, horizon, ds,
				workload.MultiTurnConfig{SystemPromptTokens: 128})
		}},
		{"agentic", func(rng *rand.Rand) []Request {
			return workload.AgenticTrace(rng, names, rate*0.6, horizon, ds,
				workload.AgenticConfig{SystemPromptTokens: 512})
		}},
		{"sharedprompt", func(rng *rand.Rand) []Request {
			return workload.SharedPrefixTrace(rng, names, rate*2, horizon, 2048, ds)
		}},
	} {
		trace := w.trace(rand.New(rand.NewSource(101)))
		reps := map[string]Report{}
		for _, arm := range []struct {
			name    string
			routing bool
		}{{"nocache", false}, {"cache_routing", true}} {
			rep, err := build(arm.routing).Serve(trace)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, arm.name, err)
			}
			reps[arm.name] = rep
			var hit, saved float64
			if rep.Prefix != nil {
				hit, saved = rep.Prefix.HitRatio(), rep.Prefix.SavedRatio()
			}
			t.Logf("%-12s  %-13s  %5d req  attainment %6.2f%%  mean TTFT %8.1fms  hit %5.1f%%  saved %5.1f%%",
				w.name, arm.name, rep.Requests, 100*rep.Attainment,
				float64(rep.MeanTTFT)/float64(time.Millisecond), 100*hit, 100*saved)
		}
		no, cr := reps["nocache"], reps["cache_routing"]
		if cr.Prefix == nil || cr.Prefix.TokensSaved == 0 {
			t.Errorf("%s: cache_routing saved no prefill tokens", w.name)
			continue
		}
		if cr.MeanTTFT >= no.MeanTTFT {
			t.Errorf("%s: cache_routing mean TTFT %v not below nocache %v", w.name, cr.MeanTTFT, no.MeanTTFT)
		}
		if cr.Attainment < no.Attainment {
			t.Errorf("%s: cache_routing attainment %.2f%% regressed below nocache %.2f%%",
				w.name, 100*cr.Attainment, 100*no.Attainment)
		}
		if w.name == "sharedprompt" && cr.Prefix.SavedRatio() < floor {
			t.Errorf("sharedprompt: cache_routing saved %.1f%% of prefill tokens, floor is %.1f%%",
				100*cr.Prefix.SavedRatio(), 100*floor)
		}
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
	want := []uint64{11_771, 14_742, 16_390, 0, 871_496_849}
	names := []string{"events", "device evictions", "promotions", "host evictions", "mean TTFT ns"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s = %d, want %d", names[i], got[i], want[i])
		}
	}
}
