package kvcache

import (
	"fmt"
	"testing"
)

// BenchmarkSwapCycle measures one warmed swap-out/swap-in cycle of a
// sequence through the full protocol, including event synchronization and
// move-list reclamation, at a short and a long sequence length.
func BenchmarkSwapCycle(b *testing.B) {
	for _, tokens := range []int{64, 4096} {
		b.Run(fmt.Sprintf("tokens=%d", tokens), func(b *testing.B) {
			cycle := newSwapCycle(b, tokens)
			cycle()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
