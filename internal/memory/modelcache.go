package memory

import (
	"container/list"
	"fmt"
)

// ModelCache is the shared host-memory cache of raw model weight chunks
// (§5.2, Fig. 9's "Model Cache"). It is an LRU over whole models: a hit
// means a scale-up can stream weights straight from DRAM through the stage
// buffer; a miss means the model must first be fetched from the remote
// registry.
type ModelCache struct {
	capacity int64
	used     int64
	lru      *list.List               // front = most recently used
	entries  map[string]*list.Element // name -> element whose Value is *cacheEntry
}

type cacheEntry struct {
	name  string
	bytes int64
}

// NewModelCache returns a cache holding up to capacity bytes of weights.
func NewModelCache(capacity int64) *ModelCache {
	if capacity <= 0 {
		panic(fmt.Sprintf("memory: non-positive model cache capacity %d", capacity))
	}
	return &ModelCache{
		capacity: capacity,
		lru:      list.New(),
		entries:  map[string]*list.Element{},
	}
}

// Contains reports whether the model's weights are resident, updating LRU
// order.
func (c *ModelCache) Contains(name string) bool {
	if el, ok := c.entries[name]; ok {
		c.lru.MoveToFront(el)
		return true
	}
	return false
}

// Insert adds a model of the given size, evicting least-recently-used
// models as needed. It fails only if the model exceeds the whole cache.
func (c *ModelCache) Insert(name string, bytes int64) error {
	if bytes <= 0 {
		return fmt.Errorf("memory: non-positive model size %d for %q", bytes, name)
	}
	if bytes > c.capacity {
		return fmt.Errorf("%w: model %q (%d bytes) exceeds cache capacity %d",
			ErrOutOfMemory, name, bytes, c.capacity)
	}
	if el, ok := c.entries[name]; ok {
		c.lru.MoveToFront(el)
		return nil
	}
	for c.used+bytes > c.capacity {
		e := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.entries, e.name)
		c.used -= e.bytes
	}
	el := c.lru.PushFront(&cacheEntry{name: name, bytes: bytes})
	c.entries[name] = el
	c.used += bytes
	return nil
}

// Len returns the number of resident models.
func (c *ModelCache) Len() int { return len(c.entries) }
