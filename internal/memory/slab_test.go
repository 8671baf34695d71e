package memory

import (
	"errors"
	"testing"
	"testing/quick"
)

func newTestPool(t *testing.T) *SlabPool {
	t.Helper()
	p := NewSlabPool(1<<20, 1<<16) // 16 slabs of 64 KiB
	for _, c := range []struct {
		label string
		size  int64
	}{{"S0", 8 << 10}, {"S1", 16 << 10}, {"S2", 32 << 10}} {
		if err := p.Register(c.label, c.size); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestSlabAllocFreeRoundTrip(t *testing.T) {
	p := newTestPool(t)
	b, err := p.Alloc("S0")
	if err != nil {
		t.Fatal(err)
	}
	if b.Class != "S0" {
		t.Fatalf("block class = %q", b.Class)
	}
	if p.UsedBytes() != 8<<10 {
		t.Fatalf("used = %d", p.UsedBytes())
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if p.UsedBytes() != 0 {
		t.Fatalf("used after free = %d", p.UsedBytes())
	}
	if p.FreeSlabCount() != 16 {
		t.Fatalf("empty slab not reclaimed: %d free slabs", p.FreeSlabCount())
	}
}

func TestSlabBlocksUniqueWithinSlab(t *testing.T) {
	p := newTestPool(t)
	seen := map[Block]bool{}
	for i := 0; i < 24; i++ { // spans multiple slabs (8 blocks per slab for S0)
		b, err := p.Alloc("S0")
		if err != nil {
			t.Fatal(err)
		}
		if seen[b] {
			t.Fatalf("duplicate block handed out: %+v", b)
		}
		seen[b] = true
	}
}

func TestSlabOOMWhenAllSlabsHeld(t *testing.T) {
	p := NewSlabPool(2<<16, 1<<16) // 2 slabs
	if err := p.Register("big", 1<<16); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc("big"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc("big"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc("big"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc on exhausted pool = %v, want ErrOutOfMemory", err)
	}
}

func TestSlabSharingAcrossShapes(t *testing.T) {
	// A slab freed by one shape must be reusable by another (the point of
	// unified slab allocation vs fixed per-shape partitions, §5.2).
	p := NewSlabPool(1<<16, 1<<16) // one slab only
	if err := p.Register("A", 1<<14); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("B", 1<<15); err != nil {
		t.Fatal(err)
	}
	a, err := p.Alloc("A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc("B"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("B alloc while A holds the only slab = %v, want OOM", err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc("B"); err != nil {
		t.Fatalf("B alloc after slab reclaim failed: %v", err)
	}
}

func TestSlabDoubleFree(t *testing.T) {
	p := newTestPool(t)
	b, _ := p.Alloc("S0")
	b2, _ := p.Alloc("S0")
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(b); err == nil {
		t.Error("double free returned nil error")
	}
	_ = b2
}

func TestSlabUnregisteredClass(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Alloc("nope"); err == nil {
		t.Error("alloc of unregistered class returned nil error")
	}
	if err := p.Register("S0", 999); err == nil {
		t.Error("conflicting re-registration returned nil error")
	}
	if err := p.Register("S0", 8<<10); err != nil {
		t.Errorf("idempotent re-registration failed: %v", err)
	}
}

func TestSlabRegisterValidation(t *testing.T) {
	p := newTestPool(t)
	if err := p.Register("zero", 0); err == nil {
		t.Error("zero block size accepted")
	}
	if err := p.Register("huge", 1<<20); err == nil {
		t.Error("block larger than slab accepted")
	}
}

func TestSlabBlockedLifecycle(t *testing.T) {
	p := NewSlabPool(1<<16, 1<<16)
	if err := p.Register("A", 1<<15); err != nil { // 2 blocks per slab
		t.Fatal(err)
	}
	b1, _ := p.Alloc("A")
	b2, _ := p.Alloc("A")
	// Free b1 into a move list: it must not be allocatable.
	if err := p.FreeBlocked(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc("A"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("blocked block was allocatable: %v", err)
	}
	// Unblock: now it must be allocatable again.
	if err := p.Unblock(b1); err != nil {
		t.Fatal(err)
	}
	b3, err := p.Alloc("A")
	if err != nil {
		t.Fatal(err)
	}
	if b3 != b1 {
		t.Fatalf("expected reclaimed block %+v, got %+v", b1, b3)
	}
	_ = b2
}

func TestSlabNotReclaimedWhileBlocked(t *testing.T) {
	p := NewSlabPool(1<<16, 1<<16)
	if err := p.Register("A", 1<<15); err != nil {
		t.Fatal(err)
	}
	b, _ := p.Alloc("A")
	if err := p.FreeBlocked(b); err != nil {
		t.Fatal(err)
	}
	if p.FreeSlabCount() != 0 {
		t.Fatal("slab reclaimed while a block is in a move list")
	}
	if err := p.Unblock(b); err != nil {
		t.Fatal(err)
	}
	// After unblock the slab is fully free and must be reclaimed.
	if p.FreeSlabCount() != 1 {
		t.Fatalf("slab not reclaimed after unblock: %d free", p.FreeSlabCount())
	}
}

func TestSlabUnblockErrors(t *testing.T) {
	p := newTestPool(t)
	b, _ := p.Alloc("S0")
	if err := p.Unblock(b); err == nil {
		t.Error("unblock of live block returned nil error")
	}
}

func TestSlabStaleFreeListAfterReclaim(t *testing.T) {
	// Regression test: allocate a full slab, free it (reclaiming the slab),
	// then reallocate — block handles must never be handed out twice.
	p := NewSlabPool(1<<16, 1<<16)
	if err := p.Register("A", 1<<14); err != nil { // 4 blocks per slab
		t.Fatal(err)
	}
	var blocks []Block
	for i := 0; i < 4; i++ {
		b, err := p.Alloc("A")
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	// Free two, leaving stale entries, then free the rest to reclaim.
	for _, b := range blocks {
		if err := p.Free(b); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[Block]bool{}
	for i := 0; i < 4; i++ {
		b, err := p.Alloc("A")
		if err != nil {
			t.Fatal(err)
		}
		if seen[b] {
			t.Fatalf("block %+v handed out twice after slab reclaim", b)
		}
		seen[b] = true
	}
}

func TestSlabStats(t *testing.T) {
	p := newTestPool(t)
	for i := 0; i < 3; i++ {
		if _, err := p.Alloc("S0"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Alloc("S2"); err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	if stats[len(stats)-1].Label != "All" {
		t.Fatal("missing aggregate stats row")
	}
	for _, st := range stats {
		if st.Fragmentation < 0 || st.Fragmentation > 1 {
			t.Errorf("class %s fragmentation %.3f outside [0,1]", st.Label, st.Fragmentation)
		}
	}
	var s0 ClassStats
	for _, st := range stats {
		if st.Label == "S0" {
			s0 = st
		}
	}
	if s0.UsedBlocks != 3 || s0.UsedBytes != 3*(8<<10) {
		t.Errorf("S0 stats = %+v", s0)
	}
	if s0.AllocatedBytes != 1<<16 {
		t.Errorf("S0 allocated = %d, want one slab", s0.AllocatedBytes)
	}
}

func TestSlabFreeBlocksAvailable(t *testing.T) {
	p := NewSlabPool(2<<16, 1<<16)
	if err := p.Register("A", 1<<15); err != nil {
		t.Fatal(err)
	}
	n, err := p.FreeBlocksAvailable("A")
	if err != nil || n != 4 {
		t.Fatalf("available = %d (%v), want 4", n, err)
	}
	if _, err := p.Alloc("A"); err != nil {
		t.Fatal(err)
	}
	n, _ = p.FreeBlocksAvailable("A")
	if n != 3 {
		t.Fatalf("available after one alloc = %d, want 3", n)
	}
}

// Property: alternating alloc/free sequences keep accounting consistent —
// used bytes equal live blocks times block size, and no block is handed out
// twice while live.
func TestSlabAccountingProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		p := NewSlabPool(1<<20, 1<<16)
		if err := p.Register("A", 4<<10); err != nil {
			return false
		}
		live := []Block{}
		liveSet := map[Block]bool{}
		for _, isAlloc := range ops {
			if isAlloc {
				b, err := p.Alloc("A")
				if err != nil {
					if !errors.Is(err, ErrOutOfMemory) {
						return false
					}
					continue
				}
				if liveSet[b] {
					return false // aliased a live block
				}
				liveSet[b] = true
				live = append(live, b)
			} else if len(live) > 0 {
				b := live[len(live)-1]
				live = live[:len(live)-1]
				delete(liveSet, b)
				if err := p.Free(b); err != nil {
					return false
				}
			}
		}
		return p.UsedBytes() == int64(len(live))*(4<<10)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pool's running used-bytes total equals the sum of the
// per-class used bytes Stats reports, and the live blocks held, after every
// operation of a mix over two classes sharing the slabs, with move-list
// frees (FreeBlocked) and their Unblock interleaved.
func TestSlabUsedBytesMatchesStatsProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		p := NewSlabPool(4<<16, 1<<16)
		sizes := map[string]int64{"A": 4 << 10, "B": 16 << 10}
		for label, size := range sizes {
			if err := p.Register(label, size); err != nil {
				return false
			}
		}
		var live, blocked []Block
		for _, op := range ops {
			var err error
			switch op % 5 {
			case 0, 1: // alloc, A or B
				label := [2]string{"A", "B"}[op%2]
				var b Block
				if b, err = p.Alloc(label); err == nil {
					live = append(live, b)
				} else if errors.Is(err, ErrOutOfMemory) {
					err = nil
				}
			case 2, 3: // free or free-blocked, an arbitrary live block
				if len(live) == 0 {
					continue
				}
				i := int(op/5) % len(live)
				b := live[i]
				live = append(live[:i], live[i+1:]...)
				if op%5 == 2 {
					err = p.Free(b)
				} else {
					err = p.FreeBlocked(b)
					blocked = append(blocked, b)
				}
			case 4: // unblock the oldest blocked block
				if len(blocked) == 0 {
					continue
				}
				err = p.Unblock(blocked[0])
				blocked = blocked[1:]
			}
			if err != nil {
				return false
			}
			var stats, held int64
			for _, st := range p.Stats() {
				if st.Label != "All" {
					stats += st.UsedBytes
				}
			}
			for _, b := range live {
				held += sizes[b.Class]
			}
			if p.UsedBytes() != stats || p.UsedBytes() != held {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A slab reclaimed by one shape and reacquired by a denser one gets
// bookkeeping for every block of the new shape, and forged block ids are
// rejected instead of indexing out of range.
func TestSlabReacquiredByDenserShape(t *testing.T) {
	// One slab, which holds 4 sparse blocks or 16 dense ones.
	p := NewSlabPool(1<<16, 1<<16)
	if err := p.Register("sparse", 1<<14); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("dense", 1<<12); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for _, c := range []struct {
			label string
			n     int
		}{{"sparse", 4}, {"dense", 16}} {
			var held []Block
			for i := 0; i < c.n; i++ {
				b, err := p.Alloc(c.label)
				if err != nil {
					t.Fatalf("round %d %s block %d: %v", round, c.label, i, err)
				}
				held = append(held, b)
			}
			if _, err := p.Alloc(c.label); !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("%s: slab overfilled: %v", c.label, err)
			}
			for _, b := range held {
				if err := p.Free(b); err != nil {
					t.Fatal(err)
				}
			}
			if p.FreeSlabCount() != 1 {
				t.Fatalf("%s: slab not reclaimed", c.label)
			}
		}
	}
	b, err := p.Alloc("sparse")
	if err != nil {
		t.Fatal(err)
	}
	for _, forged := range []Block{
		{Class: "sparse", Slab: b.Slab, Index: 4},
		{Class: "sparse", Slab: b.Slab, Index: -1},
		{Class: "sparse", Slab: 1, Index: 0},
		{Class: "dense", Slab: b.Slab, Index: 0},
	} {
		if err := p.Free(forged); err == nil {
			t.Errorf("Free(%+v) accepted a forged block", forged)
		}
		if err := p.FreeBlocked(forged); err == nil {
			t.Errorf("FreeBlocked(%+v) accepted a forged block", forged)
		}
		if err := p.Unblock(forged); err == nil {
			t.Errorf("Unblock(%+v) accepted a forged block", forged)
		}
	}
}

// Steady-state allocation allocates nothing, including the slab acquire and
// reclaim each single-block round trip triggers.
func TestSlabAllocFreeAllocs(t *testing.T) {
	p := NewSlabPool(8<<20, 1<<20)
	if err := p.Register("kv", 64<<10); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		b, err := p.Alloc("kv")
		if err != nil {
			t.Fatal(err)
		}
		if err := p.FreeBlocked(b); err != nil {
			t.Fatal(err)
		}
		if err := p.Unblock(b); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("alloc/free-blocked/unblock allocates %.1f times, want 0", n)
	}
}
