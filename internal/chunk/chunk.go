// Package chunk recycles the small objects and slices that observers and
// the prefix cache fill by the thousand: request timelines and their token
// and span buffers, switch records, journal records and their terms and
// candidates, decision chains, and prefix-cache entries.
//
// A Pool carves new slices out of shared chunks of about 16 KiB, so filling
// a few thousand small buffers costs a few hundred allocations rather than
// several per buffer as each grows by doubling. Capacities are powers of
// two, and a slice handed back with Put waits on its class's free list for
// the next Get of that class, so a warmed pool allocates nothing. Nothing is
// allocated until the first Get.
package chunk

import (
	"math/bits"
	"unsafe"
)

// chunkBytes is the size of the chunks a Pool carves slices from. A request
// larger than one chunk gets a chunk of its own.
const chunkBytes = 16 << 10

// Pool hands out slices of T, and single Ts. The zero Pool is ready to
// use. It is not safe for concurrent use; its owner's lock guards it.
type Pool[T any] struct {
	free [bits.UintSize][][]T // free slices by class: cap(s) >= 1<<class
	objs []*T                 // freed Ts
	rest []T                  // the current chunk's uncarved tail
}

// carve returns an empty slice of capacity exactly n from the current chunk,
// starting a new chunk when the current one has fewer than n left.
func (p *Pool[T]) carve(n int) []T {
	if n > len(p.rest) {
		var zero T
		per := chunkBytes / max(int(unsafe.Sizeof(zero)), 1)
		p.rest = make([]T, max(n, per))
	}
	s := p.rest[:0:n]
	p.rest = p.rest[n:]
	return s
}

// New returns a T that Free handed back, or else a zero T carved from the
// current chunk. A recycled T holds what it held when freed: the caller
// overwrites what it gets, or zeroes what it frees.
func (p *Pool[T]) New() *T {
	if n := len(p.objs); n > 0 {
		x := p.objs[n-1]
		p.objs[n-1] = nil
		p.objs = p.objs[:n-1]
		return x
	}
	return &p.carve(1)[:1][0]
}

// Free hands x back for a later New.
func (p *Pool[T]) Free(x *T) { p.objs = append(p.objs, x) }

// Get returns an empty slice whose capacity is the power of two at or above
// n, reusing one from the free list when it can. Get(0) returns nil.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // 1<<k >= n
	if f := p.free[k]; len(f) > 0 {
		s := f[len(f)-1]
		f[len(f)-1] = nil
		p.free[k] = f[:len(f)-1]
		return s
	}
	return p.carve(1 << k)
}

// Put hands s back for a later Get. It zeroes s's elements, so the pool
// keeps nothing they point to alive; the caller must not use s again.
func (p *Pool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	k := bits.Len(uint(cap(s))) - 1 // 1<<k <= cap(s)
	p.free[k] = append(p.free[k], s[:0])
}

// Fit returns s emptied when it can hold n elements, and otherwise puts s
// back and gets a slice that can.
func (p *Pool[T]) Fit(s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	p.Put(s)
	return p.Get(n)
}

// Append appends vs to s like the builtin, except that when s lacks room it
// moves to a slice from the pool and puts the old one back.
func (p *Pool[T]) Append(s []T, vs ...T) []T {
	if n := len(s) + len(vs); n > cap(s) {
		g := append(p.Get(n), s...)
		p.Put(s)
		s = g
	}
	return append(s, vs...)
}
