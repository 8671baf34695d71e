// Package memory implements the explicitly managed memory of §5.2: the
// self-managed VRAM bump arena that replaces the tensor library's caching
// allocator, the slab pools behind the unified KV caches, the host-side
// model cache, and the node DRAM layout of Fig. 9.
//
// These are real allocators with byte-level accounting — the fragmentation
// results of Fig. 16 are measured from them, not assumed — although no
// payload bytes are stored (the simulation only needs placement and sizes).
package memory

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when an allocation cannot be satisfied.
var ErrOutOfMemory = errors.New("memory: out of memory")

// BumpArena is the self-managed VRAM buffer of §5.2: allocations bump a
// pointer; deallocation is an O(1) pointer reset, which removes the garbage
// collection pass from the scale-down path.
type BumpArena struct {
	capacity  int64
	offset    int64
	highWater int64
}

// NewBumpArena returns an arena managing capacity bytes. capacity must be
// positive.
func NewBumpArena(capacity int64) *BumpArena {
	if capacity <= 0 {
		panic(fmt.Sprintf("memory: non-positive arena capacity %d", capacity))
	}
	return &BumpArena{capacity: capacity}
}

// Alloc reserves size bytes aligned to align (0 or 1 for no alignment) and
// returns the offset of the reservation. It fails with ErrOutOfMemory if the
// arena cannot fit the request.
func (a *BumpArena) Alloc(size, align int64) (int64, error) {
	if size < 0 {
		return 0, fmt.Errorf("memory: negative allocation size %d", size)
	}
	off := a.offset
	if align > 1 {
		if rem := off % align; rem != 0 {
			off += align - rem
		}
	}
	if off+size > a.capacity {
		return 0, fmt.Errorf("%w: bump arena needs %d bytes, %d free",
			ErrOutOfMemory, off+size-a.offset, a.capacity-a.offset)
	}
	a.offset = off + size
	if a.offset > a.highWater {
		a.highWater = a.offset
	}
	return off, nil
}

// ResetTo pops the arena back to a previous Mark, instantly freeing every
// allocation made after it. mark must come from Mark on this arena.
func (a *BumpArena) ResetTo(mark int64) {
	if mark < 0 || mark > a.offset {
		panic(fmt.Sprintf("memory: ResetTo(%d) outside [0,%d]", mark, a.offset))
	}
	a.offset = mark
}

// Reset frees everything — the O(1) "deallocation by pointer reset" that
// replaces the garbage-collection stage during preemptive scale-down.
func (a *BumpArena) Reset() { a.ResetTo(0) }

// Free returns bytes remaining.
func (a *BumpArena) Free() int64 { return a.capacity - a.offset }

// Capacity returns the total arena size.
func (a *BumpArena) Capacity() int64 { return a.capacity }
