package engine

import (
	"math"
	"testing"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/latency"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
)

type harness struct {
	sim   *sim.Engine
	cache *memory.ModelCache
	cpuKV *kvcache.Cache
}

func newHarness() *harness {
	return &harness{
		sim:   sim.NewEngine(1),
		cache: memory.NewModelCache(640 << 30),
		cpuKV: kvcache.NewCache("cpu", 320<<30, 64<<20, 16),
	}
}

func (h *harness) engine(name string, opts Options, warmCache ...string) *Engine {
	for _, m := range warmCache {
		mm, err := model.ByName(m)
		if err != nil {
			panic(err)
		}
		if err := h.cache.Insert(mm.Name, mm.WeightBytes()); err != nil {
			panic(err)
		}
	}
	return New(h.sim, name, Config{
		Prof:               latency.H800(),
		TP:                 1,
		Opts:               opts,
		WeightsRegionBytes: 60 << 30,
		KVRegionBytes:      16 << 30,
		ModelCache:         h.cache,
		CPUKV:              h.cpuKV,
	}, nil)
}

func mustModel(t *testing.T, name string) *model.Model {
	t.Helper()
	m, err := model.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// T0: unoptimized cold switch of a 13B model costs ~26.9s of init plus the
// GC pause when a model was previously resident.
func TestUnoptimizedSwitchIsT0(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", Unoptimized(), "LLaMA-13B", "Qwen-7B")
	m13 := mustModel(t, "LLaMA-13B")
	m7 := mustModel(t, "Qwen-7B")

	var first, second sim.Time
	e.SwitchTo(e.Models().Add(m7), func() {
		first = h.sim.Now()
		e.SwitchTo(e.Models().Add(m13), func() { second = h.sim.Now() })
	})
	h.sim.Run()

	cost13 := latency.NewCostModel(latency.H800(), m13, 1)
	wantSecond := latency.H800().GCPause + cost13.NaiveInit()
	gotSecond := second - first
	if math.Abs((gotSecond - wantSecond).Seconds()) > 0.01 {
		t.Fatalf("T0 13B switch = %v, want %v (gc + full reinit)", gotSecond, wantSecond)
	}
	if e.Stats().Reinits != 2 || e.Stats().GCPauses != 1 {
		t.Fatalf("stats = %+v", *e.Stats())
	}
}

// T1: component reuse skips reinitialization after first boot; switch cost
// becomes gc + optimized load.
func TestComponentReuseIsT1(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", Options{ComponentReuse: true}, "LLaMA-13B", "Qwen-7B")
	m13 := mustModel(t, "LLaMA-13B")
	m7 := mustModel(t, "Qwen-7B")
	var first, second sim.Time
	e.SwitchTo(e.Models().Add(m7), func() {
		first = h.sim.Now()
		e.SwitchTo(e.Models().Add(m13), func() { second = h.sim.Now() })
	})
	h.sim.Run()
	want := latency.H800().GCPause + latency.NewCostModel(latency.H800(), m13, 1).Switch()
	got := second - first
	if math.Abs((got - want).Seconds()) > 0.01 {
		t.Fatalf("T1 switch = %v, want %v", got, want)
	}
	if e.Stats().Reinits != 1 {
		t.Fatalf("reinits = %d, want 1 (first boot only)", e.Stats().Reinits)
	}
}

// T2: adding explicit memory management removes the GC pause.
func TestExplicitMemoryIsT2(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", Options{ComponentReuse: true, ExplicitMemory: true},
		"LLaMA-13B", "Qwen-7B")
	m13 := mustModel(t, "LLaMA-13B")
	m7 := mustModel(t, "Qwen-7B")
	var first, second sim.Time
	e.SwitchTo(e.Models().Add(m7), func() {
		first = h.sim.Now()
		e.SwitchTo(e.Models().Add(m13), func() { second = h.sim.Now() })
	})
	h.sim.Run()
	want := latency.NewCostModel(latency.H800(), m13, 1).Switch()
	got := second - first
	if math.Abs((got - want).Seconds()) > 0.01 {
		t.Fatalf("T2 switch = %v, want %v (load only)", got, want)
	}
	if e.Stats().GCPauses != 0 {
		t.Fatal("explicit memory still paid a GC pause")
	}
}

// Prefetch hit: switch collapses to an on-device copy — near-instant.
func TestPrefetchHitNearInstant(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", AllOptimizations(), "LLaMA-13B", "Qwen-7B")
	m13 := mustModel(t, "LLaMA-13B")
	m7 := mustModel(t, "Qwen-7B")
	var first, second sim.Time
	e.SwitchTo(e.Models().Add(m7), func() {
		first = h.sim.Now()
		if !e.StartPrefetch(e.Models().Add(m13)) {
			t.Error("prefetch refused despite spare VRAM")
		}
		// Give the prefetch time to finish (a decode turn's worth).
		h.sim.After(4*time.Second, func() {
			e.SwitchTo(e.Models().Add(m13), func() { second = h.sim.Now() })
		})
	})
	h.sim.Run()
	exposed := second - first - 4*time.Second
	if exposed > 100*time.Millisecond {
		t.Fatalf("prefetch-hit switch exposed %v, want near-instant", exposed)
	}
	if e.Stats().PrefetchHits != 1 {
		t.Fatalf("prefetch hits = %d", e.Stats().PrefetchHits)
	}
}

func TestPrefetchRefusedWithoutRoom(t *testing.T) {
	// A10-like: weights region fits one 7B model only (§7.4 disables
	// prefetching on 24 GB GPUs).
	h := newHarness()
	e := New(h.sim, "a10", Config{
		Prof:               latency.A10(),
		TP:                 1,
		Opts:               AllOptimizations(),
		WeightsRegionBytes: 16 << 30,
		KVRegionBytes:      4 << 30,
		ModelCache:         h.cache,
		CPUKV:              h.cpuKV,
	}, nil)
	m7 := mustModel(t, "Qwen-7B")
	yi := mustModel(t, "Yi-6B")
	_ = h.cache.Insert(m7.Name, m7.WeightBytes())
	_ = h.cache.Insert(yi.Name, yi.WeightBytes())
	done := false
	e.SwitchTo(e.Models().Add(m7), func() {
		if e.StartPrefetch(e.Models().Add(yi)) {
			t.Error("prefetch accepted without VRAM room")
		}
		done = true
	})
	h.sim.Run()
	if !done {
		t.Fatal("switch never completed")
	}
}

func TestStalePrefetchDropped(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", AllOptimizations(), "LLaMA-13B", "Qwen-7B", "Yi-6B")
	m13 := mustModel(t, "LLaMA-13B")
	m7 := mustModel(t, "Qwen-7B")
	yi := mustModel(t, "Yi-6B")
	e.SwitchTo(e.Models().Add(m7), func() {
		e.StartPrefetch(e.Models().Add(yi)) // prefetch Yi, but switch to 13B instead
		h.sim.After(2*time.Second, func() {
			e.SwitchTo(e.Models().Add(m13), func() {})
		})
	})
	h.sim.Run()
	if e.Stats().PrefetchHits != 0 {
		t.Fatal("stale prefetch counted as hit")
	}
	if e.prefetched != model.NoID {
		t.Fatal("stale prefetch not dropped")
	}
	if e.Current().Name != m13.Name {
		t.Fatalf("current = %v", e.Current())
	}
}

func TestCacheMissFetchesFromRegistry(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", Options{ComponentReuse: true, ExplicitMemory: true}) // cold cache
	m7 := mustModel(t, "Qwen-7B")
	var done sim.Time
	e.SwitchTo(e.Models().Add(m7), func() { done = h.sim.Now() })
	h.sim.Run()
	cost := latency.NewCostModel(latency.H800(), m7, 1)
	// First boot reinit + NVMe-tier fetch + optimized load.
	fetch := time.Duration(float64(m7.WeightBytes()) / 6e9 * float64(time.Second))
	minWant := fetch + cost.Switch()
	if done < minWant {
		t.Fatalf("cold-cache switch took %v, must include %v registry fetch", done, minWant)
	}
	if e.Stats().CacheMisses != 1 {
		t.Fatalf("cache misses = %d", e.Stats().CacheMisses)
	}
	// Second engine hits the now-populated cache.
	if !h.cache.Contains(m7.Name) {
		t.Fatal("fetched model not inserted into cache")
	}
}

func TestSwitchToSameModelIsFree(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", AllOptimizations(), "Qwen-7B")
	m7 := mustModel(t, "Qwen-7B")
	e.SwitchTo(e.Models().Add(m7), func() {
		before := h.sim.Now()
		e.SwitchTo(e.Models().Add(m7), func() {
			if h.sim.Now() != before {
				t.Error("same-model switch consumed time")
			}
		})
	})
	h.sim.Run()
	if e.Stats().Switches != 1 {
		t.Fatalf("switches = %d, want 1 (no-op switch not counted)", e.Stats().Switches)
	}
}

func TestConcurrentSwitchPanics(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", AllOptimizations(), "Qwen-7B", "Yi-6B")
	e.SwitchTo(e.Models().Add(mustModel(t, "Qwen-7B")), func() {})
	defer func() {
		if recover() == nil {
			t.Error("concurrent SwitchTo did not panic")
		}
	}()
	e.SwitchTo(e.Models().Add(mustModel(t, "Yi-6B")), func() {})
}

func TestPrefillAndDecodeTiming(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", AllOptimizations(), "Qwen-7B")
	m7 := mustModel(t, "Qwen-7B")
	cost := latency.NewCostModel(latency.H800(), m7, 1)
	var t0, t1, t2 sim.Time
	e.SwitchTo(e.Models().Add(m7), func() {
		t0 = h.sim.Now()
		e.Prefill(1000, func() {
			t1 = h.sim.Now()
			e.DecodeStep(5000, func() { t2 = h.sim.Now() })
		})
	})
	h.sim.Run()
	if got, want := t1-t0, cost.Prefill(1000); got != want {
		t.Fatalf("prefill took %v, want %v", got, want)
	}
	if got, want := t2-t1, cost.DecodeStep(5000); got != want {
		t.Fatalf("decode step took %v, want %v", got, want)
	}
	if e.Stats().PrefillJobs != 1 || e.Stats().DecodeSteps != 1 {
		t.Fatalf("job counters = %+v", *e.Stats())
	}
}

func TestExecuteWithoutModelPanics(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", AllOptimizations())
	defer func() {
		if recover() == nil {
			t.Error("Prefill without model did not panic")
		}
	}()
	e.Prefill(100, func() {})
}

func TestSwitchEstimateMatchesReality(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", Options{ComponentReuse: true, ExplicitMemory: true},
		"LLaMA-13B", "Qwen-7B")
	m13 := mustModel(t, "LLaMA-13B")
	m7 := mustModel(t, "Qwen-7B")
	var est, actual time.Duration
	var first sim.Time
	e.SwitchTo(e.Models().Add(m7), func() {
		first = h.sim.Now()
		est = e.SwitchEstimate(e.Models().Add(m13))
		e.SwitchTo(e.Models().Add(m13), func() { actual = h.sim.Now() - first })
	})
	h.sim.Run()
	if math.Abs((est - actual).Seconds()) > 0.05 {
		t.Fatalf("estimate %v vs actual %v", est, actual)
	}
	// Same-model estimate is zero.
	if e.SwitchEstimate(e.Models().Add(m13)) != 0 {
		t.Fatal("same-model estimate non-zero")
	}
}

// The headline §5 claim: full optimizations cut the preemptive switch cost
// by >95% vs the unoptimized pipeline (97% with KV overlap, measured in the
// core package where transfers exist).
func TestOptimizationLadder(t *testing.T) {
	measure := func(opts Options) time.Duration {
		h := newHarness()
		e := h.engine("gpu0", opts, "LLaMA-13B", "Qwen-7B")
		m13 := mustModel(t, "LLaMA-13B")
		m7 := mustModel(t, "Qwen-7B")
		var first, second sim.Time
		e.SwitchTo(e.Models().Add(m7), func() {
			first = h.sim.Now()
			e.SwitchTo(e.Models().Add(m13), func() { second = h.sim.Now() })
		})
		h.sim.Run()
		return second - first
	}
	t0 := measure(Unoptimized())
	t1 := measure(Options{ComponentReuse: true})
	t2 := measure(Options{ComponentReuse: true, ExplicitMemory: true})
	if !(t0 > t1 && t1 > t2) {
		t.Fatalf("optimization ladder not monotone: T0=%v T1=%v T2=%v", t0, t1, t2)
	}
	if r := 1 - t1.Seconds()/t0.Seconds(); r < 0.80 {
		t.Errorf("component reuse removed only %.0f%% of latency, §5.1 claims >80%%", 100*r)
	}
	if t2 > 1500*time.Millisecond {
		t.Errorf("T2 = %v, want ~Eq.4 load time (≈1.3s at TP=1)", t2)
	}
}

// The stage buffer streams weights in chunks (§5.2): a KV-sized transfer
// submitted while a multi-GB load is in flight must interleave, not wait
// for the whole load.
func TestChunkedLoadInterleavesDMA(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", AllOptimizations(), "LLaMA-13B")
	m13 := mustModel(t, "LLaMA-13B")
	// The load starts only after the engine's reinit, so the KV op is timed
	// from the load's first H2D busy edge: it arrives 1 ms into the first
	// chunk and must run at that chunk's end, not after the whole load.
	kvStream := e.Device().NewStream("kv-in-test")
	var loadStart, kvDone, switched sim.Time
	started := false
	e.Device().ObserveBusy(func(_ *gpu.Device, k gpu.EngineKind, info gpu.OpInfo, busy bool) {
		if started || !busy || k != gpu.H2D || info.Kind != gpu.OpLoad {
			return
		}
		started = true
		loadStart = h.sim.Now()
		h.sim.After(time.Millisecond, func() {
			kvStream.SubmitOp(gpu.H2D, 10*time.Millisecond, gpu.OpInfo{}, func() { kvDone = h.sim.Now() })
		})
	})
	e.SwitchTo(e.Models().Add(m13), func() { switched = h.sim.Now() })
	h.sim.Run()
	if !started {
		t.Fatal("the switch never started a weight load")
	}
	if want := loadStart + loadChunk + 10*time.Millisecond; kvDone != want {
		t.Fatalf("KV op finished at %v, want %v: the end of the load's first chunk plus its 10ms", kvDone, want)
	}
	loadTime := latency.NewCostModel(latency.H800(), m13, 1).Switch()
	if want := loadStart + loadTime + 10*time.Millisecond; switched != want {
		t.Fatalf("switch finished at %v, want %v: the load plus the interleaved 10ms KV op", switched, want)
	}
}

func TestEffectiveSwitchCost(t *testing.T) {
	h := newHarness()
	withPrefetch := h.engine("gpu0", AllOptimizations(), "Qwen-7B")
	m7 := mustModel(t, "Qwen-7B")
	eff := withPrefetch.EffectiveSwitchCost(withPrefetch.Models().Add(m7))
	full := withPrefetch.SwitchCost(withPrefetch.Models().Add(m7))
	if eff >= full/10 {
		t.Fatalf("prefetch-capable effective cost %v not ≪ full cost %v", eff, full)
	}
	// Without prefetch (or without room), the effective cost is the full cost.
	noPf := Options{ComponentReuse: true, ExplicitMemory: true}
	e2 := h.engine("gpu1", noPf, "Qwen-7B")
	if got := e2.EffectiveSwitchCost(e2.Models().Add(m7)); got != e2.SwitchCost(e2.Models().Add(m7)) {
		t.Fatalf("no-prefetch effective cost %v != switch cost %v", got, e2.SwitchCost(e2.Models().Add(m7)))
	}
}

func TestWarmBootSkipsFirstInit(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", Options{ComponentReuse: true, ExplicitMemory: true}, "Qwen-7B")
	e.WarmBoot()
	m7 := mustModel(t, "Qwen-7B")
	var done sim.Time
	e.SwitchTo(e.Models().Add(m7), func() { done = h.sim.Now() })
	h.sim.Run()
	want := latency.NewCostModel(latency.H800(), m7, 1).Switch()
	if done > want+time.Millisecond {
		t.Fatalf("warm-booted first switch took %v, want ~%v (no reinit)", done, want)
	}
	if e.Stats().Reinits != 0 {
		t.Fatalf("reinits = %d after warm boot", e.Stats().Reinits)
	}
}

func TestPrefetchWhileSwitchingRefused(t *testing.T) {
	h := newHarness()
	e := h.engine("gpu0", AllOptimizations(), "Qwen-7B", "Yi-6B")
	m7 := mustModel(t, "Qwen-7B")
	yi := mustModel(t, "Yi-6B")
	started := e.StartPrefetch(e.Models().Add(yi)) // engine idle, nothing loaded: allowed
	if !started {
		t.Fatal("prefetch refused on idle engine")
	}
	e.SwitchTo(e.Models().Add(m7), func() {})
	if e.StartPrefetch(e.Models().Add(yi)) {
		// Already prefetched Yi: StartPrefetch reports true only for the
		// same model, which is correct.
		if e.prefetched != e.Models().Add(yi) {
			t.Fatal("prefetch state inconsistent")
		}
	}
	h.sim.Run()
}

// Colocation (§8): switching between resident models costs only an
// activation; non-resident models evict the LRU resident.
func TestColocateResidentSwitchNearFree(t *testing.T) {
	h := newHarness()
	opts := AllOptimizations()
	opts.Colocate = true
	e := New(h.sim, "gpu0", Config{
		Prof: latency.H800(), TP: 1, Opts: opts,
		WeightsRegionBytes: 60 << 30, // fits ~4 small models
		KVRegionBytes:      10 << 30,
		ModelCache:         h.cache,
		CPUKV:              h.cpuKV,
	}, nil)
	e.WarmBoot()
	m7 := mustModel(t, "Qwen-7B")
	yi := mustModel(t, "Yi-6B")
	llama := mustModel(t, "Llama-2-7B")
	for _, m := range []*model.Model{m7, yi, llama} {
		_ = h.cache.Insert(m.Name, m.WeightBytes())
	}
	var tSwitch time.Duration
	e.SwitchTo(e.Models().Add(m7), func() {
		e.SwitchTo(e.Models().Add(yi), func() {
			// Both now resident: switching back must be ~activation only.
			start := h.sim.Now()
			e.SwitchTo(e.Models().Add(m7), func() {
				tSwitch = h.sim.Now() - start
			})
		})
	})
	h.sim.Run()
	if tSwitch > 5*time.Millisecond {
		t.Fatalf("resident switch took %v, want ~1ms activation", tSwitch)
	}
	if e.Residents() != 2 {
		t.Fatalf("residents = %d, want 2", e.Residents())
	}
	if !e.IsResident(e.Models().Add(yi)) || !e.IsResident(e.Models().Add(m7)) {
		t.Fatal("residency tracking wrong")
	}
}

// Evicting the LRU resident can leave enough free space in two fragments
// but no single hole for the incoming model: the survivor is then compacted
// to offset 0 with one on-device copy before the load starts.
func TestColocateEvictsLRU(t *testing.T) {
	h := newHarness()
	opts := AllOptimizations()
	opts.Colocate = true
	col := obs.New(obs.Options{})
	e := New(h.sim, "gpu0", Config{
		Prof: latency.H800(), TP: 1, Opts: opts,
		WeightsRegionBytes: 30 << 30, // fits two ~13GB models, not three
		KVRegionBytes:      8 << 30,
		ModelCache:         h.cache,
		CPUKV:              h.cpuKV,
		Obs:                col,
	}, nil)
	e.WarmBoot()
	yi := mustModel(t, "Yi-6B")                   // 12.1 GB
	llama := mustModel(t, "Llama-2-7B")           // 13.5 GB
	intern := mustModel(t, "InternLM2.5-7B-chat") // 15.5 GB
	for _, m := range []*model.Model{yi, llama, intern} {
		_ = h.cache.Insert(m.Name, m.WeightBytes())
	}
	e.SwitchTo(e.Models().Add(yi), func() {
		e.SwitchTo(e.Models().Add(llama), func() {
			// Region holds yi+llama. Switching to intern must evict yi
			// (LRU; llama is current).
			e.SwitchTo(e.Models().Add(intern), func() {})
		})
	})
	h.sim.Run()
	if e.IsResident(e.Models().Add(yi)) {
		t.Fatal("LRU resident not evicted")
	}
	if !e.IsResident(e.Models().Add(llama)) || !e.IsResident(e.Models().Add(intern)) {
		t.Fatal("wrong eviction victim")
	}

	// Yi's eviction leaves its hole and the tail free, neither big enough
	// for intern: llama moves to offset 0 with one compaction op.
	wantCopy := e.CostFor(e.Models().Add(intern)).OnDeviceCopy(llama.ShardWeightBytes(1))
	var compacts []gpu.OpRecord
	for _, tl := range col.DeviceTimelines() {
		for _, op := range tl.Ops {
			if op.Info.Kind == gpu.OpCompactResidents {
				compacts = append(compacts, op)
			}
		}
	}
	if len(compacts) != 1 || compacts[0].Engine != gpu.Compute ||
		compacts[0].End-compacts[0].Start != wantCopy {
		t.Fatalf("compaction ops = %+v, want one %v compute op", compacts, wantCopy)
	}
	recs, _ := col.Switches()
	last := recs[len(recs)-1]
	if last.To != intern.Name || len(last.Stages) != 2 || last.Stages[0].Name != "compact" ||
		last.Stages[0].End-last.Stages[0].Start != wantCopy || last.Stages[1].Name != "weight-load" {
		t.Fatalf("switch to %s recorded stages %+v, want compact (%v) then weight-load",
			intern.Name, last.Stages, wantCopy)
	}
	off := int64(-1)
	for _, r := range e.residents {
		if r.m.Name == llama.Name {
			off = r.off
		}
	}
	if off != 0 {
		t.Fatalf("survivor %s at offset %d after compaction, want 0", llama.Name, off)
	}
}

func TestColocatePrefetchNeverEvicts(t *testing.T) {
	h := newHarness()
	opts := AllOptimizations()
	opts.Colocate = true
	e := New(h.sim, "gpu0", Config{
		Prof: latency.H800(), TP: 1, Opts: opts,
		WeightsRegionBytes: 30 << 30,
		KVRegionBytes:      8 << 30,
		ModelCache:         h.cache,
		CPUKV:              h.cpuKV,
	}, nil)
	e.WarmBoot()
	yi := mustModel(t, "Yi-6B")
	llama := mustModel(t, "Llama-2-7B")
	intern := mustModel(t, "InternLM2.5-7B-chat")
	for _, m := range []*model.Model{yi, llama, intern} {
		_ = h.cache.Insert(m.Name, m.WeightBytes())
	}
	e.SwitchTo(e.Models().Add(yi), func() {
		e.SwitchTo(e.Models().Add(llama), func() {
			if e.StartPrefetch(e.Models().Add(intern)) {
				t.Error("prefetch displaced resident models")
			}
		})
	})
	h.sim.Run()
}

// The engine caches the current model's cost model beside current, so the
// per-step paths skip the name lookup. Both switch paths keep the two in
// step: plain and colocated, including a switch back to a resident model.
func TestCurCostTracksCurrent(t *testing.T) {
	m7 := mustModel(t, "Qwen-7B")
	yi := mustModel(t, "Yi-6B")
	for _, colocate := range []bool{false, true} {
		h := newHarness()
		opts := AllOptimizations()
		opts.Colocate = colocate
		e := h.engine("gpu0", opts, m7.Name, yi.Name)
		e.WarmBoot()
		var seen []*model.Model
		check := func() {
			seen = append(seen, e.Current())
			if e.curCost == nil || e.curCost != e.CostFor(e.CurrentID()) {
				t.Errorf("colocate=%v: curCost is not CostFor(%s)", colocate, e.Current().Name)
			}
		}
		e.SwitchTo(e.Models().Add(m7), func() {
			check()
			e.SwitchTo(e.Models().Add(yi), func() {
				check()
				e.SwitchTo(e.Models().Add(m7), check)
			})
		})
		h.sim.Run()
		if len(seen) != 3 || seen[0] != m7 || seen[1] != yi || seen[2] != m7 {
			t.Fatalf("colocate=%v: switches landed on %v", colocate, seen)
		}
	}
}

// CostFor carves the cost models of every registered model from one table
// and builds each as NewCostModel would. A model registered later gets a
// table of its own, and the cost models already handed out stay where they
// are.
func TestCostForTable(t *testing.T) {
	h := newHarness()
	cat := model.Catalog()
	var e *Engine
	var ids []model.ID
	fresh := func() {
		e = h.engine("gpu0", AllOptimizations())
		ids = ids[:0]
		for _, m := range cat[:len(cat)-1] {
			ids = append(ids, e.Models().Add(m))
		}
	}
	base := testing.AllocsPerRun(1, fresh)
	// The id table and the cost-model table, not an object per model. The
	// race detector's build allocates Grow's zeroed tail as a third.
	if n := testing.AllocsPerRun(1, func() {
		fresh()
		for _, id := range ids {
			e.CostFor(id)
		}
	}) - base; n > 3 {
		t.Errorf("first CostFor of %d models allocated %.0f objects, want at most 3", len(ids), n)
	}
	first := e.CostFor(ids[len(ids)-1])
	ids = append(ids, e.Models().Add(cat[len(cat)-1]))
	for _, id := range ids {
		if *e.CostFor(id) != *latency.NewCostModel(e.cfg.Prof, e.Models().Model(id), e.cfg.TP) {
			t.Errorf("CostFor(%d) differs from NewCostModel", id)
		}
	}
	if e.CostFor(ids[len(ids)-2]) != first {
		t.Error("a later registration moved a cost model already handed out")
	}
}
