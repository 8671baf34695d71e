package memory

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// Class ids newTestPool registers, in registration order.
const (
	s0 ClassID = iota // 8 KiB blocks
	s1                // 16 KiB
	s2                // 32 KiB
)

func newTestPool(t *testing.T) *SlabPool {
	t.Helper()
	p := NewSlabPool(1<<20, 1<<16) // 16 slabs of 64 KiB
	for i, c := range []struct {
		label string
		size  int64
	}{{"S0", 8 << 10}, {"S1", 16 << 10}, {"S2", 32 << 10}} {
		if id := mustRegister(t, p, c.label, c.size); id != ClassID(i) {
			t.Fatalf("class %s got id %d, want %d", c.label, id, i)
		}
	}
	return p
}

func mustRegister(t testing.TB, p *SlabPool, label string, blockBytes int64) ClassID {
	t.Helper()
	id, err := p.Register(label, blockBytes)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestSlabAllocFreeRoundTrip(t *testing.T) {
	p := newTestPool(t)
	b, err := p.Alloc(s0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Class != s0 || p.Label(b.Class) != "S0" {
		t.Fatalf("block class = %d (%q)", b.Class, p.Label(b.Class))
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
		b, err := p.Alloc(s0)
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
	big := mustRegister(t, p, "big", 1<<16)
	if _, err := p.Alloc(big); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(big); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(big); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc on exhausted pool = %v, want ErrOutOfMemory", err)
	}
}

func TestSlabSharingAcrossShapes(t *testing.T) {
	// A slab freed by one shape must be reusable by another (the point of
	// unified slab allocation vs fixed per-shape partitions, §5.2).
	p := NewSlabPool(1<<16, 1<<16) // one slab only
	a := mustRegister(t, p, "A", 1<<14)
	b := mustRegister(t, p, "B", 1<<15)
	blk, err := p.Alloc(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(b); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("B alloc while A holds the only slab = %v, want OOM", err)
	}
	if err := p.Free(blk); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(b); err != nil {
		t.Fatalf("B alloc after slab reclaim failed: %v", err)
	}
}

func TestSlabDoubleFree(t *testing.T) {
	p := newTestPool(t)
	b, _ := p.Alloc(s0)
	b2, _ := p.Alloc(s0)
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
	if _, err := p.Alloc(3); err == nil {
		t.Error("alloc of unregistered class returned nil error")
	}
	if _, err := p.Register("S0", 999); err == nil {
		t.Error("conflicting re-registration returned nil error")
	}
	if id, err := p.Register("S0", 8<<10); err != nil || id != s0 {
		t.Errorf("idempotent re-registration = %d, %v; want %d", id, err, s0)
	}
}

func TestSlabRegisterValidation(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.Register("zero", 0); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := p.Register("huge", 1<<20); err == nil {
		t.Error("block larger than slab accepted")
	}
}

func TestSlabBlockedLifecycle(t *testing.T) {
	p := NewSlabPool(1<<16, 1<<16)
	a := mustRegister(t, p, "A", 1<<15) // 2 blocks per slab
	b1, _ := p.Alloc(a)
	b2, _ := p.Alloc(a)
	// Free b1 into a move list: it must not be allocatable.
	if err := p.FreeBlocked(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(a); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("blocked block was allocatable: %v", err)
	}
	if n := p.BlockedBlocks(); n != 1 {
		t.Fatalf("blocked blocks = %d, want 1", n)
	}
	// Unblock: now it must be allocatable again.
	if err := p.Unblock(b1); err != nil {
		t.Fatal(err)
	}
	if n := p.BlockedBlocks(); n != 0 {
		t.Fatalf("blocked blocks after unblock = %d, want 0", n)
	}
	b3, err := p.Alloc(a)
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
	a := mustRegister(t, p, "A", 1<<15)
	b, _ := p.Alloc(a)
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
	b, _ := p.Alloc(s0)
	if err := p.Unblock(b); err == nil {
		t.Error("unblock of live block returned nil error")
	}
}

func TestSlabStaleFreeListAfterReclaim(t *testing.T) {
	// Regression test: allocate a full slab, free it (reclaiming the slab),
	// then reallocate — block handles must never be handed out twice.
	p := NewSlabPool(1<<16, 1<<16)
	a := mustRegister(t, p, "A", 1<<14) // 4 blocks per slab
	var blocks []Block
	for i := 0; i < 4; i++ {
		b, err := p.Alloc(a)
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
		b, err := p.Alloc(a)
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
		if _, err := p.Alloc(s0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Alloc(s2); err != nil {
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
	if s0.UsedBytes != 3*(8<<10) {
		t.Errorf("S0 stats = %+v", s0)
	}
	if s0.AllocatedBytes != 1<<16 {
		t.Errorf("S0 allocated = %d, want one slab", s0.AllocatedBytes)
	}
}

func TestSlabFreeBlocksAvailable(t *testing.T) {
	p := NewSlabPool(2<<16, 1<<16)
	a := mustRegister(t, p, "A", 1<<15)
	n, err := p.FreeBlocksAvailable(a)
	if err != nil || n != 4 {
		t.Fatalf("available = %d (%v), want 4", n, err)
	}
	if _, err := p.Alloc(a); err != nil {
		t.Fatal(err)
	}
	n, _ = p.FreeBlocksAvailable(a)
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
		a, err := p.Register("A", 4<<10)
		if err != nil {
			return false
		}
		live := []Block{}
		liveSet := map[Block]bool{}
		for _, isAlloc := range ops {
			if isAlloc {
				b, err := p.Alloc(a)
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
		sizes := []int64{4 << 10, 16 << 10} // by class id
		for i, size := range sizes {
			if id, err := p.Register(string(rune('A'+i)), size); err != nil || id != ClassID(i) {
				return false
			}
		}
		var live, blocked []Block
		for _, op := range ops {
			var err error
			switch op % 5 {
			case 0, 1: // alloc, A or B
				var b Block
				if b, err = p.Alloc(ClassID(op % 2)); err == nil {
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

// Slabs reclaimed by one shape and reacquired by a denser one get
// bookkeeping for every block of the new shape, and forged block ids are
// rejected instead of indexing out of range. Two slabs carve their state
// side by side from the pool's arena, so a carve that let one slab grow into
// its neighbour's state would hand out a block twice or fail a free here.
func TestSlabReacquiredByDenserShape(t *testing.T) {
	// Two slabs, each of which holds 4 sparse blocks or 16 dense ones.
	p := NewSlabPool(2<<16, 1<<16)
	sparse := mustRegister(t, p, "sparse", 1<<14)
	dense := mustRegister(t, p, "dense", 1<<12)
	for round := 0; round < 2; round++ {
		for _, c := range []struct {
			id ClassID
			n  int
		}{{sparse, 8}, {dense, 32}} {
			held := map[Block]bool{}
			for i := 0; i < c.n; i++ {
				b, err := p.Alloc(c.id)
				if err != nil {
					t.Fatalf("round %d %s block %d: %v", round, p.Label(c.id), i, err)
				}
				if held[b] {
					t.Fatalf("round %d %s: block %+v handed out twice", round, p.Label(c.id), b)
				}
				held[b] = true
			}
			if _, err := p.Alloc(c.id); !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("%s: slabs overfilled: %v", p.Label(c.id), err)
			}
			for b := range held {
				if err := p.Free(b); err != nil {
					t.Fatal(err)
				}
			}
			if p.FreeSlabCount() != 2 {
				t.Fatalf("%s: slabs not reclaimed", p.Label(c.id))
			}
		}
	}
	b, err := p.Alloc(sparse)
	if err != nil {
		t.Fatal(err)
	}
	for _, forged := range []Block{
		{Class: sparse, Slab: b.Slab, Index: 4},
		{Class: sparse, Slab: b.Slab, Index: -1},
		{Class: sparse, Slab: 1 - b.Slab, Index: 0},
		{Class: sparse, Slab: 2, Index: 0},
		{Class: dense, Slab: b.Slab, Index: 0},
		{Class: 2, Slab: b.Slab, Index: 0},
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

// The first touch of every slab in a fresh pool carves the slabs' block
// state from a few arena chunks instead of allocating a slice per slab.
func TestSlabFirstTouchAllocs(t *testing.T) {
	const slabs, perSlab = 1024, 16
	var p *SlabPool
	var kv ClassID
	fill := func() {
		for i := 0; i < slabs*perSlab; i++ {
			if _, err := p.Alloc(kv); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh := func() {
		p = NewSlabPool(slabs<<16, 1<<16)
		kv = mustRegister(t, p, "kv", 1<<16/perSlab)
	}
	fresh()
	base := testing.AllocsPerRun(1, fresh)
	n := testing.AllocsPerRun(1, func() { fresh(); fill() })
	// 16 KiB of state is four 4 KiB chunks, and the free list is sized to
	// one slab's blocks once: 5 objects, where a slice per slab would be
	// over a thousand.
	if got := n - base; got > 8 {
		t.Fatalf("filling %d fresh slabs allocated %.0f objects, want at most 8", slabs, got)
	}
	if p.FreeSlabCount() != 0 {
		t.Fatalf("%d slabs untouched", p.FreeSlabCount())
	}
}

// Steady-state allocation allocates nothing, including the slab acquire and
// reclaim each single-block round trip triggers.
func TestSlabAllocFreeAllocs(t *testing.T) {
	p := NewSlabPool(8<<20, 1<<20)
	kv := mustRegister(t, p, "kv", 64<<10)
	cycle := func() {
		b, err := p.Alloc(kv)
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

// A Block is 12 bytes of plain integers, so block lists are memory the
// garbage collector never scans.
func TestBlockHasNoPointers(t *testing.T) {
	if n := unsafe.Sizeof(Block{}); n != 12 {
		t.Errorf("sizeof(Block) = %d, want 12", n)
	}
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("Block holds pointer kind %s (%s)", ty.Kind(), ty)
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type)
			}
		case reflect.Array:
			walk(ty.Elem())
		}
	}
	walk(reflect.TypeOf(Block{}))
}

// Register hands out one stable id per label, refuses a label re-registered
// with another size, and every id-taking call rejects an id it never issued.
func TestRegisterStableIDs(t *testing.T) {
	p := newTestPool(t)
	for i, label := range []string{"S0", "S1", "S2"} {
		id, err := p.Register(label, int64(8<<10)<<i)
		if err != nil || id != ClassID(i) {
			t.Errorf("re-register %s = %d, %v; want %d", label, id, err, i)
		}
		if got := p.Label(id); got != label {
			t.Errorf("Label(%d) = %q, want %q", id, got, label)
		}
	}
	if id, err := p.Register("S1", 8<<10); err == nil {
		t.Errorf("S1 re-registered with a different size got id %d", id)
	}
	if id := mustRegister(t, p, "S3", 4<<10); id != 3 {
		t.Errorf("fourth class got id %d, want 3", id)
	}
	for _, bad := range []ClassID{-1, 4, 1 << 20} {
		if _, err := p.Alloc(bad); err == nil {
			t.Errorf("Alloc(%d) accepted an unknown id", bad)
		}
		if err := p.Free(Block{Class: bad}); err == nil {
			t.Errorf("Free of a block in unknown class %d succeeded", bad)
		}
		if _, err := p.FreeBlocksAvailable(bad); err == nil {
			t.Errorf("FreeBlocksAvailable(%d) accepted an unknown id", bad)
		}
		if p.Label(bad) != "" {
			t.Errorf("Label(%d) = %q, want empty", bad, p.Label(bad))
		}
	}
}

// FuzzSlabPool runs random Register, Alloc, Free, FreeBlocked and Unblock
// sequences over three classes of different density on four slabs, with
// forged block ids among them, against a naive model that keeps every held
// block's state in a map. No live block is handed out twice, each call
// fails exactly when and how the model says it must, and UsedBytes,
// BlockedBlocks, FreeBlocksAvailable and the free slab count stay exact.
func FuzzSlabPool(f *testing.F) {
	// Each op is two bytes: a verb (op%7) and its argument.
	//
	// Park one of three blocks on a move list, allocate past it, unblock it
	// and take it again.
	f.Add([]byte{0, 0, 1, 0, 1, 0, 1, 0, 3, 1, 1, 0, 4, 0, 1, 0, 2, 0})
	// Register all three classes and fill the pool with the sparsest, park
	// a block on a move list, free the rest, then let the densest take the
	// slabs while the parked block pins its own.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 3, 0, 2, 0, 2, 0,
		2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 4, 0, 1, 0, 2, 1, 2, 1})
	// Forged ids: unknown classes, out-of-range slabs and indices.
	f.Add([]byte{0, 9, 0, 1, 1, 0, 1, 1, 5, 0x4d, 5, 0x2e, 6, 0xff, 5, 0x01, 1, 3, 4, 1})
	const slabSize, slabs = 64 << 10, 4
	sizes := []int64{4 << 10, 16 << 10, 48 << 10} // 16, 4 and 1 blocks per slab
	perSlab := func(c ClassID) int { return int(slabSize / sizes[c]) }
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := NewSlabPool(slabs*slabSize, slabSize)
		registered := 0
		// The model: each slab's owner (-1 while free) and the state of
		// every held block, with the live and blocked ones in order.
		owner := []ClassID{-1, -1, -1, -1}
		state := map[Block]blockState{}
		var live, blocked []Block
		held := func(sid int) int {
			n := 0
			for b := range state {
				if int(b.Slab) == sid {
					n++
				}
			}
			return n
		}
		free := func(c ClassID) int { // free blocks on the slabs c owns
			n := 0
			for sid, o := range owner {
				if o == c {
					n += perSlab(c) - held(sid)
				}
			}
			return n
		}
		drop := func(list []Block, b Block) []Block {
			return slices.DeleteFunc(list, func(x Block) bool { return x == b })
		}
		release := func(b Block) { // b is free again
			delete(state, b)
			if held(int(b.Slab)) == 0 {
				owner[b.Slab] = -1
			}
		}
		step := func(op, arg byte) {
			var list []Block
			switch op % 7 {
			case 0: // register the next class, or the last one again
				registered = min(registered+1, len(sizes))
				c := registered - 1
				if id, err := p.Register(string(rune('A'+c)), sizes[c]); err != nil || id != ClassID(c) {
					t.Fatalf("Register(%d) = %d, %v", c, id, err)
				}
				return
			case 1: // alloc, from a registered class or an unknown one
				c := ClassID(int(arg) % (len(sizes) + 1))
				b, err := p.Alloc(c)
				switch {
				case int(c) >= registered:
					if err == nil || errors.Is(err, ErrOutOfMemory) {
						t.Fatalf("Alloc of unregistered class %d = %+v, %v", c, b, err)
					}
					return
				case free(c) == 0 && !slices.Contains(owner, -1):
					if !errors.Is(err, ErrOutOfMemory) {
						t.Fatalf("Alloc(%d) on a full pool = %+v, %v; want out of memory", c, b, err)
					}
					return
				case err != nil:
					t.Fatalf("Alloc(%d): %v", c, err)
				}
				if b.Class != c || b.Slab < 0 || b.Slab >= slabs || b.Index < 0 || int(b.Index) >= perSlab(c) {
					t.Fatalf("Alloc(%d) = %+v, not a block of the class", c, b)
				}
				if _, taken := state[b]; taken {
					t.Fatalf("Alloc(%d) handed out %+v, which is held", c, b)
				}
				// A class takes a free slab only when its own are full.
				if o := owner[b.Slab]; o != c && (o != -1 || free(c) > 0) {
					t.Fatalf("Alloc(%d) = %+v from a slab owned by %d, with %d free blocks on its own", c, b, o, free(c))
				}
				owner[b.Slab] = c
				state[b] = blockLive
				live = append(live, b)
				return
			case 2, 3: // free or free-blocked a live block
				list = live
			case 4: // unblock a blocked block
				list = blocked
			default: // one of the three calls on a forged block
				op = arg%3 + 2
				list = []Block{{Class: ClassID(arg % 4), Slab: int32(arg>>2%6) - 1, Index: int32(arg>>5) * 3}}
			}
			if len(list) == 0 {
				return
			}
			b := list[int(arg)%len(list)]
			st, known := state[b]
			var err error
			switch op % 7 {
			case 2:
				if err = p.Free(b); err == nil {
					live = drop(live, b)
					release(b)
				}
			case 3:
				if err = p.FreeBlocked(b); err == nil {
					live = drop(live, b)
					state[b] = blockBlocked
					blocked = append(blocked, b)
				}
			case 4:
				if err = p.Unblock(b); err == nil {
					blocked = drop(blocked, b)
					release(b)
				}
			}
			want := blockLive
			if op%7 == 4 {
				want = blockBlocked
			}
			if (err == nil) != (known && st == want) || errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("verb %d on %+v (held %v, state %d) = %v", op%7, b, known, st, err)
			}
		}
		for k := 0; k+1 < len(ops); k += 2 {
			step(ops[k], ops[k+1])
			var used int64
			for _, b := range live {
				used += sizes[b.Class]
			}
			if p.UsedBytes() != used || p.BlockedBlocks() != len(blocked) {
				t.Fatalf("op %d: used %d, blocked %d; model %d, %d", k/2, p.UsedBytes(), p.BlockedBlocks(), used, len(blocked))
			}
			freeSlabs := 0
			for _, o := range owner {
				if o == -1 {
					freeSlabs++
				}
			}
			if p.FreeSlabCount() != freeSlabs {
				t.Fatalf("op %d: %d free slabs, model %d", k/2, p.FreeSlabCount(), freeSlabs)
			}
			for c := ClassID(0); int(c) < registered; c++ {
				if n, err := p.FreeBlocksAvailable(c); err != nil || n != free(c)+freeSlabs*perSlab(c) {
					t.Fatalf("op %d: FreeBlocksAvailable(%d) = %d, %v; model %d", k/2, c, n, err, free(c)+freeSlabs*perSlab(c))
				}
			}
		}
	})
}
