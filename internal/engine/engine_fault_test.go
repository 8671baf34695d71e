package engine

import (
	"testing"
	"time"

	"aegaeon/internal/fault"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// faultEngine builds an engine with fault state attached and a cold model
// cache, so every first switch takes the registry-fetch path.
func faultEngine(h *harness, f *fault.Faults, opts Options) *Engine {
	return New(h.sim, "gpu0", Config{
		Prof:               latency.H800(),
		TP:                 1,
		Opts:               opts,
		WeightsRegionBytes: 60 << 30,
		KVRegionBytes:      16 << 30,
		ModelCache:         h.cache,
		CPUKV:              h.cpuKV,
		Faults:             f,
	}, nil)
}

// A fetch-failure window covering the switch start must delay the fetch with
// backed-off retries until the window closes, then complete normally.
func TestFetchRetryRecoversAfterWindow(t *testing.T) {
	h := newHarness()
	f := fault.New(h.sim, 7)
	e := faultEngine(h, f, Options{ComponentReuse: true, ExplicitMemory: true})
	m7 := mustModel(t, "Qwen-7B")
	// First-boot reinit runs ~17.7s before the fetch path; the window must
	// still be open when the first fetch attempt lands.
	const window = 20 * time.Second
	f.FailFetch(m7.Name, window)

	var done sim.Time
	e.SwitchTo(e.Models().Add(m7), func() { done = h.sim.Now() })
	h.sim.Run()

	if done == 0 {
		t.Fatal("switch never completed")
	}
	fetch := time.Duration(float64(m7.WeightBytes()) / 6e9 * float64(time.Second))
	if done < window+fetch {
		t.Fatalf("switch done at %v, want >= window(%v)+fetch(%v)", done, window, fetch)
	}
	st := f.Snapshot()
	if st.FetchFailures == 0 || st.FetchRetries == 0 {
		t.Fatalf("no retries recorded: %+v", st)
	}
	if st.FetchRetries != st.FetchFailures {
		t.Fatalf("every failure must schedule a retry: %+v", st)
	}
	if e.Stats().CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (retries must not re-count)", e.Stats().CacheMisses)
	}
	if !h.cache.Contains(m7.Name) {
		t.Fatal("fetched model not inserted into cache after recovery")
	}
}

// An exhausted retry budget must not wedge the switch: the attempt counter
// re-arms (cool-down) and the fetch still lands once the window closes.
func TestFetchRetryExhaustionRearms(t *testing.T) {
	h := newHarness()
	f := fault.New(h.sim, 7)
	e := faultEngine(h, f, Options{ComponentReuse: true, ExplicitMemory: true})
	m7 := mustModel(t, "Qwen-7B")
	// Window long enough to burn through MaxAttempts (default backoff sums
	// to ~3.15s for 6 attempts) at least once after the ~17.7s reinit.
	const window = 30 * time.Second
	f.FailFetch(m7.Name, window)

	var done sim.Time
	e.SwitchTo(e.Models().Add(m7), func() { done = h.sim.Now() })
	h.sim.Run()

	if done == 0 {
		t.Fatal("switch wedged after retry exhaustion")
	}
	st := f.Snapshot()
	if st.FetchExhausted == 0 {
		t.Fatalf("expected at least one exhaustion in a 10s window: %+v", st)
	}
	if done < window {
		t.Fatalf("switch done at %v, inside the failure window", done)
	}
}

// A fetch slowdown multiplies only the registry-fetch component.
func TestFetchSlowdownStretchesFetch(t *testing.T) {
	h := newHarness()
	f := fault.New(h.sim, 7)
	e := faultEngine(h, f, Options{ComponentReuse: true, ExplicitMemory: true})
	m7 := mustModel(t, "Qwen-7B")
	f.SlowFetch(4, time.Hour)

	var done sim.Time
	e.SwitchTo(e.Models().Add(m7), func() { done = h.sim.Now() })
	h.sim.Run()

	fetch := time.Duration(float64(m7.WeightBytes()) / 6e9 * float64(time.Second))
	cost := latency.NewCostModel(latency.H800(), m7, 1)
	minWant := 4*fetch + cost.Switch()
	if done < minWant {
		t.Fatalf("slowed cold switch took %v, want >= %v (4x fetch)", done, minWant)
	}
}

// Prefetch is opportunistic: while the registry is failing for a model that
// is not in the host cache, StartPrefetch must decline rather than queue a
// doomed fetch.
func TestPrefetchDeclinedDuringFetchFailure(t *testing.T) {
	h := newHarness()
	f := fault.New(h.sim, 7)
	e := faultEngine(h, f, Options{ComponentReuse: true, ExplicitMemory: true, Prefetch: true})
	m13 := mustModel(t, "LLaMA-13B")
	mustWarm(h, "Qwen-7B")
	e.SwitchTo(e.Models().Add(mustModel(t, "Qwen-7B")), func() {})
	h.sim.Run()

	f.FailFetch(m13.Name, time.Second)
	if e.StartPrefetch(e.Models().Add(m13)) {
		t.Fatal("prefetch accepted while registry fetch failing")
	}
	// After the window closes the same prefetch is accepted.
	h.sim.After(2*time.Second, func() {
		if !e.StartPrefetch(e.Models().Add(m13)) {
			t.Error("prefetch declined after failure window closed")
		}
	})
	h.sim.Run()
}

func mustWarm(h *harness, name string) {
	mm, err := model.ByName(name)
	if err != nil {
		panic(err)
	}
	if err := h.cache.Insert(mm.Name, mm.WeightBytes()); err != nil {
		panic(err)
	}
}

// The colocated switch path must take the same retry gate.
func TestColocatedFetchRetry(t *testing.T) {
	h := newHarness()
	f := fault.New(h.sim, 7)
	e := faultEngine(h, f, Options{ComponentReuse: true, ExplicitMemory: true, Colocate: true})
	m7 := mustModel(t, "Qwen-7B")
	const window = 20 * time.Second // past the ~17.7s first-boot reinit
	f.FailFetch("*", window)        // wildcard target covers every model

	var done sim.Time
	e.SwitchTo(e.Models().Add(m7), func() { done = h.sim.Now() })
	h.sim.Run()

	if done == 0 {
		t.Fatal("colocated switch never completed")
	}
	if done < window {
		t.Fatalf("colocated switch done at %v, inside the failure window", done)
	}
	if f.Snapshot().FetchRetries == 0 {
		t.Fatal("colocated miss path bypassed the retry gate")
	}
}
