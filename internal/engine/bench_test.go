package engine

import (
	"testing"

	"aegaeon/internal/kvcache"
	"aegaeon/internal/model"
)

// newSwitchCycle returns one warmed model switch of an engine with opts,
// virtual time run to quiescence, around a KV swap cycle of one sequence,
// as a decode turn makes it: the sequence swaps out, the engine switches
// model, and the sequence swaps back in once the switch lands.
//   - swap: T3 alternates two models, each switch a prefetch hit plus an
//     on-device compaction, prefetching the other model when it lands;
//   - colocate: two resident models alternate through activation.
//
// The cycle is warmed up by loading both models once, so every later
// switch takes the steady-state path (prefetch hit or activation); hits
// counts those switches.
func newSwitchCycle(tb testing.TB, opts Options) (cycle func(), hits func() uint64) {
	h := newHarness()
	e := h.engine("gpu0", opts, "Qwen-7B", "Yi-6B")
	e.WarmBoot()
	var ids [2]model.ID
	for i, name := range []string{"Qwen-7B", "Yi-6B"} {
		m, err := model.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = e.Models().Add(m)
	}
	seq, err := e.KV().NewSequence("r", e.model(ids[0]).KVShape(), 512)
	if err != nil {
		tb.Fatal(err)
	}
	n, other := 0, model.NoID
	var swapErr error
	switched := func() {
		e.StartPrefetch(other)
		_, swapErr = e.KV().SwapIn(seq)
	}
	cycle = func() {
		next := ids[n%2]
		other = ids[(n+1)%2]
		n++
		if _, err := e.KV().SwapOut(seq); err != nil {
			tb.Fatal(err)
		}
		e.SwitchTo(next, switched)
		h.sim.Run()
		if swapErr != nil || seq.State() != kvcache.StateGPU {
			tb.Fatalf("swap-in after the switch: %v, sequence %s", swapErr, seq.State())
		}
	}
	cycle()
	cycle()
	base := e.Stats().PrefetchHits
	return cycle, func() uint64 { return e.Stats().PrefetchHits - base }
}

var switchModes = []struct {
	name string
	opts Options
}{
	{"swap", AllOptimizations()},
	{"colocate", func() Options { o := AllOptimizations(); o.Colocate = true; return o }()},
}

// BenchmarkSwitchCycle measures one warmed model switch around a KV swap
// cycle (newSwitchCycle) in both placement modes.
func BenchmarkSwitchCycle(b *testing.B) {
	for _, c := range switchModes {
		b.Run(c.name, func(b *testing.B) {
			cycle, hits := newSwitchCycle(b, c.opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			if got := hits(); got != uint64(b.N) {
				b.Fatalf("%d of %d timed switches hit a prefetched or resident model", got, b.N)
			}
		})
	}
}

// A warmed switch, with the KV swap cycle around it, allocates nothing in
// either placement mode: the ladder's state lives in the engine, its stages
// complete through one bound method, and events, ops and transfer records
// come from free lists. The one growth left is the switch-latency CDF's
// append, amortized to well under one allocation per switch.
func TestSwitchSteadyStateAllocs(t *testing.T) {
	for _, c := range switchModes {
		cycle, hits := newSwitchCycle(t, c.opts)
		const runs = 100
		if n := testing.AllocsPerRun(runs, cycle); n != 0 {
			t.Errorf("%s: a warmed switch allocates %.1f times, want 0", c.name, n)
		}
		if got := hits(); got != runs+1 {
			t.Errorf("%s: %d of %d switches hit a prefetched or resident model", c.name, got, runs+1)
		}
	}
}
