package engine

import (
	"testing"

	"aegaeon/internal/model"
)

// BenchmarkSwitchCycle measures one warmed model switch, virtual time run to
// quiescence, in both placement modes:
//   - swap: T3 alternates two models, each switch a prefetch hit plus an
//     on-device compaction, prefetching the other model when it lands;
//   - colocate: two resident models alternate through activation.
func BenchmarkSwitchCycle(b *testing.B) {
	colocate := AllOptimizations()
	colocate.Colocate = true
	for _, c := range []struct {
		name string
		opts Options
	}{{"swap", AllOptimizations()}, {"colocate", colocate}} {
		b.Run(c.name, func(b *testing.B) {
			h := newHarness()
			e := h.engine("gpu0", c.opts, "Qwen-7B", "Yi-6B")
			e.WarmBoot()
			var ids [2]model.ID
			for i, name := range []string{"Qwen-7B", "Yi-6B"} {
				m, err := model.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = e.Models().Add(m)
			}
			n := 0
			cycle := func() {
				next, other := ids[n%2], ids[(n+1)%2]
				n++
				e.SwitchTo(next, func() { e.StartPrefetch(other) })
				h.sim.Run()
			}
			// Warm up: load both models once so every timed switch takes
			// the steady-state path (prefetch hit or activation).
			cycle()
			cycle()
			hits := e.Stats().PrefetchHits
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			if got := e.Stats().PrefetchHits - hits; got != uint64(b.N) {
				b.Fatalf("%d of %d timed switches hit a prefetched or resident model", got, b.N)
			}
		})
	}
}
