package memory

import (
	"fmt"
	"sort"
)

// RegionAlloc is a first-fit allocator with free-list coalescing, used for
// the weights buffer when dynamic colocation keeps several models resident
// simultaneously (§8: incorporating multiplexing into Aegaeon). Unlike the
// bump arena, regions can be freed in any order; fragmentation is bounded
// by coalescing adjacent free spans on every Free.
type RegionAlloc struct {
	capacity int64
	free     []span // sorted by offset, coalesced
	live     map[int64]int64
	used     int64
}

type span struct{ off, size int64 }

// NewRegionAlloc manages capacity bytes.
func NewRegionAlloc(capacity int64) *RegionAlloc {
	if capacity <= 0 {
		panic(fmt.Sprintf("memory: non-positive region capacity %d", capacity))
	}
	return &RegionAlloc{
		capacity: capacity,
		free:     []span{{0, capacity}},
		live:     map[int64]int64{},
	}
}

// Alloc reserves size bytes (first fit) and returns the offset.
func (r *RegionAlloc) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("memory: non-positive region size %d", size)
	}
	for i, s := range r.free {
		if s.size < size {
			continue
		}
		off := s.off
		if s.size == size {
			r.free = append(r.free[:i], r.free[i+1:]...)
		} else {
			r.free[i] = span{s.off + size, s.size - size}
		}
		r.live[off] = size
		r.used += size
		return off, nil
	}
	return 0, fmt.Errorf("%w: region allocator needs %d contiguous bytes, %d free total",
		ErrOutOfMemory, size, r.capacity-r.used)
}

// Free releases the allocation at off, coalescing with neighbors.
func (r *RegionAlloc) Free(off int64) error {
	size, ok := r.live[off]
	if !ok {
		return fmt.Errorf("memory: region free of unknown offset %d", off)
	}
	delete(r.live, off)
	r.used -= size
	i := sort.Search(len(r.free), func(i int) bool { return r.free[i].off >= off })
	r.free = append(r.free, span{})
	copy(r.free[i+1:], r.free[i:])
	r.free[i] = span{off, size}
	// Coalesce with the next span.
	if i+1 < len(r.free) && r.free[i].off+r.free[i].size == r.free[i+1].off {
		r.free[i].size += r.free[i+1].size
		r.free = append(r.free[:i+1], r.free[i+2:]...)
	}
	// Coalesce with the previous span.
	if i > 0 && r.free[i-1].off+r.free[i-1].size == r.free[i].off {
		r.free[i-1].size += r.free[i].size
		r.free = append(r.free[:i], r.free[i+1:]...)
	}
	return nil
}

// Free bytes remaining (possibly fragmented).
func (r *RegionAlloc) FreeBytes() int64 { return r.capacity - r.used }

// LargestFree returns the largest contiguous free span.
func (r *RegionAlloc) LargestFree() int64 {
	var max int64
	for _, s := range r.free {
		if s.size > max {
			max = s.size
		}
	}
	return max
}
