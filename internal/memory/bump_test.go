package memory

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestBumpArenaBasic(t *testing.T) {
	a := NewBumpArena(1000)
	off, err := a.Alloc(100, 0)
	if err != nil || off != 0 {
		t.Fatalf("first alloc = (%d, %v), want (0, nil)", off, err)
	}
	off, err = a.Alloc(200, 0)
	if err != nil || off != 100 {
		t.Fatalf("second alloc = (%d, %v), want (100, nil)", off, err)
	}
	if a.Used() != 300 || a.Free() != 700 {
		t.Fatalf("used/free = %d/%d, want 300/700", a.Used(), a.Free())
	}
}

func TestBumpArenaAlignment(t *testing.T) {
	a := NewBumpArena(1000)
	if _, err := a.Alloc(3, 0); err != nil {
		t.Fatal(err)
	}
	off, err := a.Alloc(10, 256)
	if err != nil {
		t.Fatal(err)
	}
	if off != 256 {
		t.Fatalf("aligned alloc at %d, want 256", off)
	}
}

func TestBumpArenaOOM(t *testing.T) {
	a := NewBumpArena(100)
	if _, err := a.Alloc(101, 0); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized alloc error = %v, want ErrOutOfMemory", err)
	}
	if _, err := a.Alloc(100, 0); err != nil {
		t.Fatalf("exact-fit alloc failed: %v", err)
	}
	if _, err := a.Alloc(1, 0); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc on full arena error = %v, want ErrOutOfMemory", err)
	}
}

func TestBumpArenaResetIsInstantFree(t *testing.T) {
	a := NewBumpArena(100)
	if _, err := a.Alloc(80, 0); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if a.Used() != 0 {
		t.Fatalf("used after reset = %d", a.Used())
	}
	if a.HighWater() != 80 {
		t.Fatalf("high water = %d, want 80", a.HighWater())
	}
	if _, err := a.Alloc(100, 0); err != nil {
		t.Fatalf("alloc after reset failed: %v", err)
	}
}

func TestBumpArenaMarkResetTo(t *testing.T) {
	a := NewBumpArena(100)
	if _, err := a.Alloc(30, 0); err != nil {
		t.Fatal(err)
	}
	mark := a.Mark()
	if _, err := a.Alloc(50, 0); err != nil {
		t.Fatal(err)
	}
	a.ResetTo(mark)
	if a.Used() != 30 {
		t.Fatalf("used after ResetTo = %d, want 30", a.Used())
	}
}

func TestBumpArenaResetToPanicsOnBadMark(t *testing.T) {
	a := NewBumpArena(100)
	defer func() {
		if recover() == nil {
			t.Error("ResetTo beyond offset did not panic")
		}
	}()
	a.ResetTo(50)
}

func TestBumpArenaNegativeSize(t *testing.T) {
	a := NewBumpArena(100)
	if _, err := a.Alloc(-1, 0); err == nil {
		t.Error("negative alloc returned nil error")
	}
}

// Property: a sequence of allocations never overlaps and never exceeds
// capacity; offsets strictly increase.
func TestBumpArenaNoOverlapProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		a := NewBumpArena(1 << 20)
		var prevEnd int64
		for _, s := range sizes {
			size := int64(s%4096) + 1
			off, err := a.Alloc(size, 64)
			if err != nil {
				return errors.Is(err, ErrOutOfMemory)
			}
			if off < prevEnd || off%64 != 0 || off+size > a.Capacity() {
				return false
			}
			prevEnd = off + size
		}
		return a.Used() == prevEnd
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
