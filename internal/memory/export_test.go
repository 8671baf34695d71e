package memory

// Mark returns the current bump pointer, for later ResetTo.
func (a *BumpArena) Mark() int64 { return a.offset }

// Used returns bytes currently allocated.
func (a *BumpArena) Used() int64 { return a.offset }

// HighWater returns the historical maximum of Used.
func (a *BumpArena) HighWater() int64 { return a.highWater }

// Peek reports residency without touching LRU order or counters.
func (c *ModelCache) Peek(name string) bool {
	_, ok := c.entries[name]
	return ok
}

// Used returns resident bytes.
func (c *ModelCache) Used() int64 { return c.used }

// Capacity returns the configured limit.
func (c *ModelCache) Capacity() int64 { return c.capacity }

// Used returns bytes currently allocated.
func (r *RegionAlloc) Used() int64 { return r.used }

// Capacity returns the managed size.
func (r *RegionAlloc) Capacity() int64 { return r.capacity }

// Fragments returns the number of free spans (1 when fully coalesced or
// empty of allocations at the tail).
func (r *RegionAlloc) Fragments() int { return len(r.free) }

// FreeSlabCount returns the number of slabs not assigned to any class.
func (p *SlabPool) FreeSlabCount() int { return len(p.freeSlabs) }
