package memory

import "testing"

func BenchmarkBumpAlloc(b *testing.B) {
	a := NewBumpArena(1 << 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Alloc(4096, 256); err != nil {
			a.Reset()
		}
	}
}

func BenchmarkBumpResetCycle(b *testing.B) {
	a := NewBumpArena(1 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			_, _ = a.Alloc(28<<20, 256) // 16 x 28 MiB "weights"
		}
		a.Reset()
	}
}

func BenchmarkSlabAllocFree(b *testing.B) {
	p := NewSlabPool(8<<30, 64<<20)
	kv := mustRegister(b, p, "kv", 8<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk, err := p.Alloc(kv)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Free(blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSlabChurnMixedShapes(b *testing.B) {
	p := NewSlabPool(8<<30, 64<<20)
	shapes := []string{"s0", "s1", "s2", "s3"}
	sizes := []int64{2 << 20, 8 << 20, 12 << 20, 40 << 20}
	ids := make([]ClassID, len(shapes))
	for i, s := range shapes {
		ids[i] = mustRegister(b, p, s, sizes[i])
	}
	var live []Block
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(live) > 256 {
			blk := live[0]
			live = live[1:]
			if err := p.Free(blk); err != nil {
				b.Fatal(err)
			}
		}
		blk, err := p.Alloc(ids[i%len(ids)])
		if err != nil {
			for _, l := range live {
				_ = p.Free(l)
			}
			live = live[:0]
			continue
		}
		live = append(live, blk)
	}
}

func BenchmarkModelCacheHit(b *testing.B) {
	c := NewModelCache(1 << 40)
	_ = c.Insert("m", 28<<30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !c.Contains("m") {
			b.Fatal("miss")
		}
	}
}
