package memory

import "fmt"

// Mark returns the current bump pointer, for later ResetTo.
func (a *BumpArena) Mark() int64 { return a.offset }

// Used returns bytes currently allocated.
func (a *BumpArena) Used() int64 { return a.offset }

// HighWater returns the historical maximum of Used.
func (a *BumpArena) HighWater() int64 { return a.highWater }

// Allocs returns the number of successful allocations made.
func (a *BumpArena) Allocs() uint64 { return a.allocs }

// Resets returns the number of Reset/ResetTo calls made.
func (a *BumpArena) Resets() uint64 { return a.resets }

// Peek reports residency without touching LRU order or counters.
func (c *ModelCache) Peek(name string) bool {
	_, ok := c.entries[name]
	return ok
}

// Pin marks the model as in use by an active weight load, protecting it
// from eviction. Returns an error if the model is not resident.
func (c *ModelCache) Pin(name string) error {
	el, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("memory: pin of non-resident model %q", name)
	}
	el.Value.(*cacheEntry).pinned++
	return nil
}

// Unpin releases one Pin reference.
func (c *ModelCache) Unpin(name string) error {
	el, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("memory: unpin of non-resident model %q", name)
	}
	e := el.Value.(*cacheEntry)
	if e.pinned <= 0 {
		return fmt.Errorf("memory: unpin of unpinned model %q", name)
	}
	e.pinned--
	return nil
}

// Used returns resident bytes.
func (c *ModelCache) Used() int64 { return c.used }

// Capacity returns the configured limit.
func (c *ModelCache) Capacity() int64 { return c.capacity }

// Stats returns cumulative hit, miss, and eviction counts.
func (c *ModelCache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// Used returns bytes currently allocated.
func (r *RegionAlloc) Used() int64 { return r.used }

// Capacity returns the managed size.
func (r *RegionAlloc) Capacity() int64 { return r.capacity }

// Fragments returns the number of free spans (1 when fully coalesced or
// empty of allocations at the tail).
func (r *RegionAlloc) Fragments() int { return len(r.free) }

// FreeSlabCount returns the number of slabs not assigned to any class.
func (p *SlabPool) FreeSlabCount() int { return len(p.freeSlabs) }
