package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

func testConfig(models []*model.Model, opts engine.Options, nPrefill, nDecode int) Config {
	return Config{
		Prof:       latency.H800(),
		TP:         1,
		Opts:       opts,
		NumPrefill: nPrefill,
		NumDecode:  nDecode,
		Models:     models,
		SLO:        slo.Default(),
	}
}

// runTrace builds a system, submits the trace, runs to drain, finalizes.
func runTrace(t *testing.T, cfg Config, trace []workload.Request) *System {
	t.Helper()
	se := sim.NewEngine(1)
	sys := NewSystem(se, cfg)
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	se.Run()
	sys.Finalize(se.Now())
	return sys
}

func TestSingleModelServing(t *testing.T) {
	models := model.MarketMix(1)
	names := []string{models[0].Name}
	rng := rand.New(rand.NewSource(1))
	trace := workload.PoissonTrace(rng, names, 0.5, 120*time.Second, workload.ShareGPT())
	sys := runTrace(t, testConfig(models, engine.AllOptimizations(), 1, 1), trace)

	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d of %d requests", sys.Completed(), len(trace))
	}
	if att := sys.Attainment(); att < 0.95 {
		t.Fatalf("single-model attainment = %.3f, want near-perfect", att)
	}
}

func TestMultiModelPreemptiveServing(t *testing.T) {
	models := model.MarketMix(4)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(2))
	trace := workload.PoissonTrace(rng, names, 0.1, 180*time.Second, workload.ShareGPT())
	sys := runTrace(t, testConfig(models, engine.AllOptimizations(), 1, 2), trace)

	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d of %d requests", sys.Completed(), len(trace))
	}
	if att := sys.Attainment(); att < 0.90 {
		t.Fatalf("4-model attainment = %.3f, want >= 0.90", att)
	}
	// Preemptive auto-scaling must actually have happened.
	var switches uint64
	for _, e := range sys.Engines() {
		switches += e.Stats().Switches
	}
	if switches < 4 {
		t.Fatalf("only %d switches across instances; token-level scaling inactive", switches)
	}
}

func TestNoKVLeaksAfterDrain(t *testing.T) {
	models := model.MarketMix(3)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(3))
	trace := workload.PoissonTrace(rng, names, 0.15, 90*time.Second, workload.ShareGPT())
	sys := runTrace(t, testConfig(models, engine.AllOptimizations(), 1, 1), trace)

	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d of %d", sys.Completed(), len(trace))
	}
	for _, e := range sys.Engines() {
		if used := e.KV().GPUCache.Pool().UsedBytes(); used != 0 {
			t.Errorf("%s leaked %d GPU KV bytes", e.Name, used)
		}
	}
	if used := sys.cpuKV.Pool().UsedBytes(); used != 0 {
		t.Errorf("CPU KV cache leaked %d bytes", used)
	}
	if n := sys.cpuKV.Pool().BlockedBlocks(); n != 0 {
		t.Errorf("move list not drained: %d CPU blocks still blocked", n)
	}
}

func TestEveryTokenAccounted(t *testing.T) {
	models := model.MarketMix(2)
	trace := []workload.Request{
		{ID: "r0", Model: models[0].Name, Arrival: 0, InputTokens: 200, OutputTokens: 50},
		{ID: "r1", Model: models[1].Name, Arrival: time.Second, InputTokens: 100, OutputTokens: 30},
		{ID: "r2", Model: models[0].Name, Arrival: 2 * time.Second, InputTokens: 300, OutputTokens: 1},
	}
	se := sim.NewEngine(1)
	sys := NewSystem(se, testConfig(models, engine.AllOptimizations(), 1, 1))
	sys.LogTokens()
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	se.Run()
	sys.Finalize(se.Now())
	for _, r := range sys.Requests() {
		if r.Outcome != decision.OutcomeDone {
			t.Fatalf("request %s not done", r.ID)
		}
		if r.Generated() != r.OutputTokens || len(r.TokenTimes) != r.OutputTokens {
			t.Fatalf("request %s produced %d tokens (%d logged), want %d",
				r.ID, r.Generated(), len(r.TokenTimes), r.OutputTokens)
		}
		for i := 1; i < len(r.TokenTimes); i++ {
			if r.TokenTimes[i] < r.TokenTimes[i-1] {
				t.Fatalf("request %s token times not monotone", r.ID)
			}
		}
		if r.FirstToken() != r.TokenTimes[0] || r.LastToken() != r.TokenTimes[len(r.TokenTimes)-1] {
			t.Fatalf("request %s: first/last token %v/%v, log has %v/%v", r.ID,
				r.FirstToken(), r.LastToken(), r.TokenTimes[0], r.TokenTimes[len(r.TokenTimes)-1])
		}
		if r.FirstToken() < r.Arrival {
			t.Fatalf("request %s first token before arrival", r.ID)
		}
	}
}

func TestFineGrainedSyncBeatsBlocking(t *testing.T) {
	models := model.MarketMix(6)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	gen := func() []workload.Request {
		rng := rand.New(rand.NewSource(4))
		return workload.PoissonTrace(rng, names, 0.12, 240*time.Second, workload.ShareGPT())
	}
	fineOpts := engine.AllOptimizations()
	blockOpts := engine.AllOptimizations()
	blockOpts.FineGrainedSync = false
	fine := runTrace(t, testConfig(models, fineOpts, 1, 2), gen())
	block := runTrace(t, testConfig(models, blockOpts, 1, 2), gen())
	if fine.Attainment()+1e-9 < block.Attainment()-0.02 {
		t.Fatalf("fine-grained sync (%.3f) materially worse than blocking (%.3f)",
			fine.Attainment(), block.Attainment())
	}
	// Blocking sync must expose more data-plane wait per request.
	fd := fine.KVSyncCDF().Mean()
	bd := block.KVSyncCDF().Mean()
	if bd < fd {
		t.Errorf("blocking sync exposed %.3fs/request vs fine %.3fs — expected more", bd, fd)
	}
}

func TestOptimizedBeatsUnoptimizedAutoScaling(t *testing.T) {
	models := model.MarketMix(5)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	gen := func() []workload.Request {
		rng := rand.New(rand.NewSource(5))
		return workload.PoissonTrace(rng, names, 0.1, 240*time.Second, workload.ShareGPT())
	}
	opt := runTrace(t, testConfig(models, engine.AllOptimizations(), 1, 2), gen())
	unopt := runTrace(t, testConfig(models, engine.Unoptimized(), 1, 2), gen())
	if opt.Attainment() <= unopt.Attainment() {
		t.Fatalf("optimized attainment %.3f <= unoptimized %.3f",
			opt.Attainment(), unopt.Attainment())
	}
}

func TestSwitchLatencySubSecond(t *testing.T) {
	// §7.3 / Fig. 15: optimized preemptive scaling completes in under one
	// second (near-instant with prefetch hits).
	models := model.MarketMix(6)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(6))
	trace := workload.PoissonTrace(rng, names, 0.1, 300*time.Second, workload.ShareGPT())
	sys := runTrace(t, testConfig(models, engine.AllOptimizations(), 1, 2), trace)
	cdf := sys.SwitchLatencyCDF()
	if cdf.N() == 0 {
		t.Fatal("no switches recorded")
	}
	if p95 := cdf.Quantile(0.95); p95 > 1.6 {
		t.Errorf("p95 switch latency = %.2fs, want ~<= Eq.4 load time", p95)
	}
}

func TestLatencyBreakdownSane(t *testing.T) {
	models := model.MarketMix(4)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(7))
	trace := workload.PoissonTrace(rng, names, 0.1, 180*time.Second, workload.ShareGPT())
	sys := runTrace(t, testConfig(models, engine.AllOptimizations(), 1, 2), trace)
	fr := sys.Breakdown().Fractions()
	var sum float64
	for _, f := range fr {
		if f < 0 || f > 1 {
			t.Fatalf("breakdown fraction out of range: %v", fr)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("breakdown fractions sum to %.3f", sum)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	models := model.MarketMix(3)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	run := func() (float64, int) {
		rng := rand.New(rand.NewSource(8))
		trace := workload.PoissonTrace(rng, names, 0.1, 120*time.Second, workload.ShareGPT())
		sys := runTrace(t, testConfig(models, engine.AllOptimizations(), 1, 1), trace)
		return sys.Attainment(), sys.Completed()
	}
	a1, c1 := run()
	a2, c2 := run()
	if a1 != a2 || c1 != c2 {
		t.Fatalf("non-deterministic: (%.6f,%d) vs (%.6f,%d)", a1, c1, a2, c2)
	}
}

// A trace naming an unknown model is rejected whole: the good request
// before it is neither queued nor recorded.
func TestSubmitUnknownModel(t *testing.T) {
	se := sim.NewEngine(1)
	models := model.MarketMix(1)
	sys := NewSystem(se, testConfig(models, engine.AllOptimizations(), 1, 1))
	pending := se.Pending()
	err := sys.Submit([]workload.Request{
		{ID: "good", Model: models[0].Name, InputTokens: 16, OutputTokens: 4},
		{ID: "bad", Model: "ghost", InputTokens: 16, OutputTokens: 4},
	})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	if se.Pending() != pending || len(sys.Requests()) != 0 {
		t.Fatalf("rejected Submit queued %d events and recorded %d requests",
			se.Pending()-pending, len(sys.Requests()))
	}
}

// Submit feeds a trace's arrivals to the kernel one at a time: the paper
// testbed's five-minute trace grows the event queue by one entry, not one
// per request.
func TestSubmitQueuesOneArrival(t *testing.T) {
	se := sim.NewEngine(1)
	models := model.MarketMix(40)
	sys := NewSystem(se, testConfig(models, engine.AllOptimizations(), 6, 10))
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	trace := workload.PoissonTrace(se.Rand(), names, 0.1, 5*time.Minute, workload.ShareGPT())
	if len(trace) != 1189 {
		t.Fatalf("trace has %d requests, want the paper testbed's 1189", len(trace))
	}
	pending := se.Pending()
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	if grew := se.Pending() - pending; grew != 1 {
		t.Fatalf("Submit of %d requests grew the event queue by %d, want 1", len(trace), grew)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero instances did not panic")
		}
	}()
	NewSystem(sim.NewEngine(1), Config{
		Prof: latency.H800(), Models: model.MarketMix(1), SLO: slo.Default(),
	})
}

// The heterogeneous-SLO extension: a model with a strict TBT coexists with
// a loose one; both must be tracked against their own targets and the
// system must keep the strict model within its deadline budget.
func TestPerModelSLOs(t *testing.T) {
	models := model.MarketMix(2)
	cfg := testConfig(models, engine.AllOptimizations(), 1, 1)
	cfg.ModelSLOs = map[string]slo.SLO{
		models[0].Name: {TTFT: 5 * time.Second, TBT: 60 * time.Millisecond},
		models[1].Name: {TTFT: 20 * time.Second, TBT: 300 * time.Millisecond},
	}
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(11))
	trace := workload.PoissonTrace(rng, names, 0.1, 120*time.Second, workload.ShareGPT())
	sys := runTrace(t, cfg, trace)
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d/%d", sys.Completed(), len(trace))
	}
	if att := sys.Attainment(); att < 0.9 {
		t.Fatalf("heterogeneous-SLO attainment = %.3f", att)
	}
}

// Honoring Algorithm 1's MAX_GPSIZE: with a burst of same-model arrivals,
// no group ever admits more than the bound.
func TestGroupSizeBound(t *testing.T) {
	models := model.MarketMix(1)
	cfg := testConfig(models, engine.AllOptimizations(), 1, 1)
	cfg.MaxGroupSize = 4
	se := sim.NewEngine(1)
	sys := NewSystem(se, cfg)
	var trace []workload.Request
	for i := 0; i < 20; i++ {
		trace = append(trace, workload.Request{
			ID: fmt.Sprintf("r%02d", i), Model: models[0].Name,
			Arrival: time.Duration(i) * time.Millisecond, InputTokens: 100, OutputTokens: 5,
		})
	}
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	maxSeen := 0
	se.At(50*time.Millisecond, func() {
		for _, p := range sys.prefills {
			for _, g := range p.queue {
				if g.size > maxSeen {
					maxSeen = g.size
				}
			}
		}
	})
	se.Run()
	sys.Finalize(se.Now())
	if maxSeen > 4 {
		t.Fatalf("a group admitted %d jobs, MAX_GPSIZE=4", maxSeen)
	}
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d/%d", sys.Completed(), len(trace))
	}
}

// Decode work lists keep same-model batches adjacent after reorder
// (Algorithm 2 line 6).
func TestReorderAdjacency(t *testing.T) {
	d := &decodeInstance{}
	mk := func(m model.ID) *dbatch { return &dbatch{mid: m, reqs: []*Request{{}}} }
	d.workList = []*dbatch{mk(1), mk(2), mk(1), mk(3), mk(2)}
	d.reorder()
	got := ""
	for _, b := range d.workList {
		got += string(rune('a' - 1 + b.mid))
	}
	if got != "aabbc" {
		t.Fatalf("reorder produced %q, want aabbc (first-occurrence order, same models adjacent)", got)
	}
}

// Deep-overload backpressure: with a tiny host DRAM budget, the unified CPU
// KV cache fills; the system must degrade gracefully (prefill stalls, decode
// keeps sequences resident) instead of failing, and still finish everything.
func TestCPUKVCacheExhaustionBackpressure(t *testing.T) {
	models := model.MarketMix(4)
	cfg := testConfig(models, engine.AllOptimizations(), 1, 1)
	cfg.hostDRAM = 48 << 30 // tiny: ~14 GB CPU KV for the whole node
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(12))
	trace := workload.PoissonTrace(rng, names, 0.3, 90*time.Second, workload.ShareGPT())
	sys := runTrace(t, cfg, trace)
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d/%d under CPU KV pressure", sys.Completed(), len(trace))
	}
	if used := sys.cpuKV.Pool().UsedBytes(); used != 0 {
		t.Fatalf("CPU KV leaked %d bytes", used)
	}
}

// The §8 colocation extension: with models small enough for several to
// stay resident, decode switches become ~1ms activations. Attainment stays
// within a small margin of swap-based serving (residency competes with KV
// capacity — see the §8 ablation), while median switch cost collapses.
func TestColocationServesStrictSLO(t *testing.T) {
	models := model.SmallMix(6) // 12-15 GB each; ~3 fit resident on H800
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(13))
	trace := workload.PoissonTrace(rng, names, 0.1, 180*time.Second, workload.ShareGPT())

	strict := slo.Default().Scale(0.3)
	base := testConfig(models, engine.AllOptimizations(), 1, 2)
	base.SLO = strict
	colo := base
	colo.Opts.Colocate = true

	plain := runTrace(t, base, trace)
	sys := runTrace(t, colo, trace)
	if sys.Completed() != len(trace) {
		t.Fatalf("colocation completed %d/%d", sys.Completed(), len(trace))
	}
	if sys.Attainment() < plain.Attainment()-0.05 {
		t.Fatalf("colocation attainment %.3f far below swap-based %.3f",
			sys.Attainment(), plain.Attainment())
	}
	if p50, base50 := sys.SwitchLatencyCDF().Quantile(0.5), plain.SwitchLatencyCDF().Quantile(0.5); p50 > base50 {
		t.Fatalf("colocated p50 switch %.3fs not below swap-based %.3fs", p50, base50)
	}
	// Residency must actually be exploited.
	maxRes := 0
	for _, e := range sys.Engines() {
		if r := e.Residents(); r > maxRes {
			maxRes = r
		}
	}
	if maxRes < 2 {
		t.Fatalf("max residents = %d, colocation inactive", maxRes)
	}
}

// Tracing captures the serving lifecycle when enabled and stays silent
// otherwise.
func TestSchedulerTracing(t *testing.T) {
	models := model.MarketMix(3)
	cfg := testConfig(models, engine.AllOptimizations(), 1, 1)
	col := obs.New(obs.Options{})
	cfg.Obs = col
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(14))
	traceReqs := workload.PoissonTrace(rng, names, 0.1, 60*time.Second, workload.ShareGPT())
	sys := runTrace(t, cfg, traceReqs)
	if sys.Collector() != col {
		t.Fatal("collector not exposed")
	}
	tr := col.Ring()
	if tr.Count(obs.KindArrival) != uint64(len(traceReqs)) {
		t.Fatalf("arrivals traced = %d, want %d", tr.Count(obs.KindArrival), len(traceReqs))
	}
	if tr.Count(obs.KindRequestDone) != uint64(len(traceReqs)) {
		t.Fatalf("completions traced = %d, want %d", tr.Count(obs.KindRequestDone), len(traceReqs))
	}
	for _, k := range []obs.Kind{obs.KindPrefillStart, obs.KindPrefillDone, obs.KindTurnStart, obs.KindTurnEnd} {
		if tr.Count(k) == 0 {
			t.Errorf("no %v events traced", k)
		}
	}
	if tr.Count(obs.KindSwitchStart) != tr.Count(obs.KindSwitchDone) {
		t.Errorf("switch start/done mismatch: %d vs %d",
			tr.Count(obs.KindSwitchStart), tr.Count(obs.KindSwitchDone))
	}
}
