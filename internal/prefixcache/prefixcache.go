// Package prefixcache implements a global prefix cache over the slab-
// allocated KV tiers of internal/kvcache, in the spirit of Mooncake's
// KV-centric architecture: prompt prefixes that repeat across requests
// (multi-turn chat, agentic loops, shared system prompts) are retained after
// the owning request completes, indexed by chained block-aligned chunk
// hashes, and reused by later requests instead of being recomputed.
//
// The host (CPU DRAM) tier is the tier of record: every cached block holds a
// slab block in the shared CPU KV pool. Prefill instances additionally hold
// per-instance device copies of hot entries (promotion on reuse), which turn
// a PCIe copy into a cheaper on-device copy. Entries are reference-counted:
// a chain pinned by an in-flight prefill is never reclaimed, no matter the
// eviction pressure. Eviction is leaf-only (an entry with cached descendants
// is never removed, keeping every indexed chain contiguous from the prompt
// start) and deterministic: victims are chosen by a total order over
// (policy key, model, hash), never by map iteration order, so simulations
// replay identically.
package prefixcache

import (
	"fmt"
	"sort"
	"sync"

	"aegaeon/internal/decision"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// Policy selects the eviction victim ordering.
type Policy int

const (
	// PolicyLRU evicts the least-recently-used unpinned leaf.
	PolicyLRU Policy = iota
	// PolicyFreq evicts the leaf with the fewest lifetime hits, breaking
	// ties by recency — it keeps a frequently reused system prompt resident
	// through a burst of one-off conversations that would flush pure LRU.
	PolicyFreq
)

func (p Policy) String() string {
	if p == PolicyFreq {
		return "freq"
	}
	return "lru"
}

// ParsePolicy parses "lru", "freq", or "" (lru).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "lru":
		return PolicyLRU, nil
	case "freq":
		return PolicyFreq, nil
	}
	return PolicyLRU, fmt.Errorf("prefixcache: unknown policy %q", s)
}

// Config parameterizes the cache.
type Config struct {
	// HostBytes caps host-tier residency. Zero defaults to a quarter of the
	// host KV pool: the pool is shared with sequence swap-out, and the cache
	// must not starve it.
	HostBytes int64
	// DeviceBytes caps per-instance device-tier residency. Zero defaults to
	// an eighth of the instance's GPU KV pool.
	DeviceBytes int64
	// Policy is the eviction policy.
	Policy Policy
	// PromoteAfter is the hit count at which an entry earns a device copy on
	// the instance that reused it. Zero defaults to 1 (promote on first
	// reuse).
	PromoteAfter int
	// Routing enables cache-aware placement in the serving layer. The cache
	// itself only records the flag; internal/core consults it.
	Routing bool
	// Journal, when non-nil, receives a decision record for every eviction
	// victim choice (host and device tiers). Nil keeps eviction
	// journal-free — the usual zero-overhead off path.
	Journal *decision.Journal
	// Clock supplies virtual time for journal records (nil stamps zero).
	Clock func() sim.Time
}

// classInfo caches per-model registration so promotion does not need the
// KV shape again. The id is the class in the host tier; promotion resolves
// the device tier's own id from the shape.
type classInfo struct {
	id         memory.ClassID
	blockBytes int64
	shape      model.KVShape
}

// entry is one cached block: tokens [(depth-1)*B, depth*B) of some prompt,
// identified by the chained hash of everything up to and including it.
type entry struct {
	model string
	hash  uint64
	depth int // 1-based block count covered from the prompt start

	parent   *entry
	children int // entries whose parent is this one

	refs    int    // in-flight pins; >0 bars reclamation
	hits    uint64 // lifetime reuse count (Acquire matches)
	lastUse sim.Time

	blockBytes int64
	hostBlock  memory.Block
	host       heapSlot // place among the host tier's victims

	dev map[string]*devCopy // instance -> device copy
}

// devCopy is an entry's copy on one instance's device tier. Device residency
// is root-contiguous per instance, so a copy's children hold copies only
// where their parent does.
type devCopy struct {
	block    memory.Block
	children int      // children holding a copy on the same instance
	slot     heapSlot // place among that instance's device victims
}

// Cache is the global prefix cache. All methods are safe for concurrent use:
// the simulator core runs single-threaded, but gateway scrape handlers and
// race tests touch the cache from other goroutines.
type Cache struct {
	mu   sync.Mutex
	cfg  Config
	host *kvcache.Cache

	devices   map[string]*kvcache.Cache
	devBudget map[string]int64

	block   int                          // tokens per block
	index   map[string]map[uint64]*entry // model -> chunk hash -> entry
	classes map[string]classInfo         // model -> host-registered class

	hostBytes int64
	devBytes  map[string]int64

	// Eviction candidates, kept current on every pin, unpin and touch:
	// unpinned host leaves, and per attached instance its unpinned device
	// leaves.
	hostVictims victimHeap
	devVictims  map[string]*victimHeap

	st       stats
	perModel map[string]*ModelStats
}

type stats struct {
	lookups, hits, tokensSaved, prefillTokens uint64
	inserts, insertedBlocks                   uint64
	hostEvictions, deviceEvictions            uint64
	promotions                                uint64
	deviceDrops                               uint64
}

// ModelStats is per-model reuse accounting.
type ModelStats struct {
	Lookups     uint64
	Hits        uint64
	TokensSaved uint64
}

// Stats is a point-in-time snapshot of the cache. Its JSON form is the body
// of one deployment in the gateway's /debug/prefix.
type Stats struct {
	Lookups       uint64 `json:"lookups"`
	Hits          uint64 `json:"hits"`
	TokensSaved   uint64 `json:"tokens_saved"`
	PrefillTokens uint64 `json:"prefill_tokens"`
	Inserts       uint64 `json:"inserts"`

	HostEvictions   uint64 `json:"host_evictions"`
	DeviceEvictions uint64 `json:"device_evictions"`
	Promotions      uint64 `json:"promotions"`
	DeviceDrops     uint64 `json:"device_drops"`

	HostEntries   int `json:"host_entries"`
	DeviceCopies  int `json:"device_copies"`
	PinnedEntries int `json:"pinned_entries"`

	HostBytes   int64 `json:"host_bytes"`
	DeviceBytes int64 `json:"device_bytes"`

	PerModel              map[string]ModelStats `json:"per_model,omitempty"`
	DeviceBytesByInstance map[string]int64      `json:"device_bytes_by_instance,omitempty"`
}

// Add accumulates o into s: counters and residency sum, and the per-model
// and per-instance maps merge into maps s owns, so o's stay untouched.
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.TokensSaved += o.TokensSaved
	s.PrefillTokens += o.PrefillTokens
	s.Inserts += o.Inserts
	s.HostEvictions += o.HostEvictions
	s.DeviceEvictions += o.DeviceEvictions
	s.Promotions += o.Promotions
	s.DeviceDrops += o.DeviceDrops
	s.HostEntries += o.HostEntries
	s.DeviceCopies += o.DeviceCopies
	s.PinnedEntries += o.PinnedEntries
	s.HostBytes += o.HostBytes
	s.DeviceBytes += o.DeviceBytes
	if s.PerModel == nil {
		s.PerModel = map[string]ModelStats{}
	}
	for m, ms := range o.PerModel {
		agg := s.PerModel[m]
		agg.Lookups += ms.Lookups
		agg.Hits += ms.Hits
		agg.TokensSaved += ms.TokensSaved
		s.PerModel[m] = agg
	}
	if s.DeviceBytesByInstance == nil {
		s.DeviceBytesByInstance = map[string]int64{}
	}
	for inst, n := range o.DeviceBytesByInstance {
		s.DeviceBytesByInstance[inst] += n
	}
}

// HitRatio returns Hits/Lookups (0 with no lookups).
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// SavedRatio returns TokensSaved/PrefillTokens (0 with no lookups).
func (s Stats) SavedRatio() float64 {
	if s.PrefillTokens == 0 {
		return 0
	}
	return float64(s.TokensSaved) / float64(s.PrefillTokens)
}

// New builds a prefix cache whose host tier allocates from the given CPU KV
// cache. Block granularity is inherited from the host tier.
func New(cfg Config, host *kvcache.Cache) *Cache {
	if cfg.HostBytes <= 0 {
		cfg.HostBytes = host.Pool().Capacity() / 4
	}
	if cfg.PromoteAfter <= 0 {
		cfg.PromoteAfter = 1
	}
	c := &Cache{
		cfg:        cfg,
		host:       host,
		devices:    map[string]*kvcache.Cache{},
		devBudget:  map[string]int64{},
		block:      host.BlockTokens(),
		index:      map[string]map[uint64]*entry{},
		classes:    map[string]classInfo{},
		devBytes:   map[string]int64{},
		devVictims: map[string]*victimHeap{},
		perModel:   map[string]*ModelStats{},
	}
	c.hostVictims.less = c.less
	return c
}

// AttachDevice registers an instance's GPU KV cache as a device tier.
// Promotions for that instance allocate from it. The granularity must match
// the host tier's.
func (c *Cache) AttachDevice(instance string, dev *kvcache.Cache) {
	if dev.BlockTokens() != c.block {
		panic(fmt.Sprintf("prefixcache: device tier %s block tokens %d != host %d",
			instance, dev.BlockTokens(), c.block))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.devices[instance] = dev
	if c.devVictims[instance] == nil {
		c.devVictims[instance] = &victimHeap{less: c.less}
	}
	b := c.cfg.DeviceBytes
	if b <= 0 {
		b = dev.Pool().Capacity() / 8
	}
	c.devBudget[instance] = b
}

// Routing reports whether cache-aware placement is enabled.
func (c *Cache) Routing() bool { return c.cfg.Routing }

// BlockTokens returns the cache's block granularity.
func (c *Cache) BlockTokens() int { return c.block }

func (c *Cache) modelStats(m string) *ModelStats {
	ms := c.perModel[m]
	if ms == nil {
		ms = &ModelStats{}
		c.perModel[m] = ms
	}
	return ms
}

// ensureClass registers the model's KV shape with the host tier once.
func (c *Cache) ensureClass(m string, shape model.KVShape) (classInfo, error) {
	if ci, ok := c.classes[m]; ok {
		return ci, nil
	}
	id, err := c.host.RegisterShape(shape)
	if err != nil {
		return classInfo{}, err
	}
	ci := classInfo{id: id, blockBytes: c.host.BlockBytes(id), shape: shape}
	c.classes[m] = ci
	return ci, nil
}

// prefix returns the first n chunk hashes of a prompt (all of them when it
// has fewer). Chained hashes are prefix-stable, so one ChunkHashes call per
// prompt serves every lookup and insert at any depth.
func prefix(hashes []uint64, n int) []uint64 {
	return hashes[:max(0, min(n, len(hashes)))]
}

// walk returns the resident chain matching the prompt's chunk hashes.
// Leaf-only eviction guarantees the chain is contiguous from the root, so
// the walk stops at the first absent chunk hash.
func (c *Cache) walk(m string, hashes []uint64) []*entry {
	idx := c.index[m]
	if idx == nil || len(hashes) == 0 {
		return nil
	}
	var chain []*entry
	for _, h := range hashes {
		e := idx[h]
		if e == nil {
			break
		}
		chain = append(chain, e)
	}
	return chain
}

// Hit is a pinned prefix match. The holder must call Release exactly when
// the reuse copy has been charged (or the request died); Release is
// idempotent.
type Hit struct {
	c        *Cache
	instance string
	chain    []*entry
	released bool

	// MatchedTokens is the prefix length served from the cache; prefill
	// skips these tokens.
	MatchedTokens int
	// DeviceTokens of those were already resident on the consuming
	// instance's device tier (contiguous from the prompt start).
	DeviceTokens int
	// HostBytes is the volume to copy host→device (the non-device-resident
	// part of the match); DeviceBytes the volume copied on-device.
	HostBytes   int64
	DeviceBytes int64
}

// Acquire looks up the longest cached prefix of a prompt about to prefill on
// instance, pins it, and returns it — or nil on a miss. hashes are the
// prompt's ChunkHashes over at least its (tokens-1)/BlockTokens() blocks;
// any beyond that are ignored. The match is capped one token short of the
// prompt so at least one token always prefills (the model must produce
// output, and TTFT stays well-defined).
func (c *Cache) Acquire(instance, m string, shape model.KVShape, hashes []uint64, tokens int, now sim.Time) *Hit {
	c.mu.Lock()
	defer c.mu.Unlock()

	c.st.lookups++
	c.st.prefillTokens += uint64(tokens)
	ms := c.modelStats(m)
	ms.Lookups++

	chain := c.walk(m, prefix(hashes, (tokens-1)/c.block))
	if len(chain) == 0 {
		return nil
	}

	h := &Hit{c: c, instance: instance, chain: chain}
	devDepth := 0
	for i, e := range chain {
		e.refs++
		e.hits++
		e.lastUse = now
		c.refile(e)
		if i == devDepth {
			if _, ok := e.dev[instance]; ok {
				devDepth++
			}
		}
	}
	h.MatchedTokens = len(chain) * c.block
	h.DeviceTokens = devDepth * c.block
	for i, e := range chain {
		if i < devDepth {
			h.DeviceBytes += e.blockBytes
		} else {
			h.HostBytes += e.blockBytes
		}
	}

	c.st.hits++
	c.st.tokensSaved += uint64(h.MatchedTokens)
	ms.Hits++
	ms.TokensSaved += uint64(h.MatchedTokens)
	// Remember the shape so promotion in Release can register device classes
	// even if the model was only ever seen via Acquire.
	if _, err := c.ensureClass(m, shape); err != nil {
		// Registration of an already-resident model cannot fail (the chain
		// exists, so the class does); tolerate and skip.
		_ = err
	}
	return h
}

// Release unpins the hit's chain and promotes reused entries to the
// consuming instance's device tier, budget permitting. Safe to call more
// than once; only the first call acts.
func (h *Hit) Release(now sim.Time) {
	if h == nil || h.released {
		return
	}
	h.released = true
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	// Promote root-first so device residency stays contiguous from the
	// prompt start (a device walk stops at the first non-resident block, so
	// a gap would strand everything after it). The chain stays pinned until
	// promotion ends, so making room for one entry never evicts the copies
	// of its ancestors: those copies are what make it reachable.
	if dev := c.devices[h.instance]; dev != nil {
		for _, e := range h.chain {
			if _, ok := e.dev[h.instance]; ok {
				continue
			}
			if e.hits < uint64(c.cfg.PromoteAfter) {
				break
			}
			if !c.promote(e, h.instance, dev, now) {
				break
			}
		}
	}
	for _, e := range h.chain {
		if e.refs > 0 {
			e.refs--
			c.refile(e)
		}
	}
}

// promote gives e a device copy on instance. Caller holds c.mu.
func (c *Cache) promote(e *entry, instance string, dev *kvcache.Cache, now sim.Time) bool {
	ci, ok := c.classes[e.model]
	if !ok {
		return false
	}
	if !c.ensureDeviceRoom(instance, e.blockBytes) {
		return false
	}
	id, err := dev.RegisterShape(ci.shape)
	if err != nil {
		return false
	}
	b, err := dev.Pool().Alloc(id)
	if err != nil {
		// The instance's GPU pool is full of sequence KV; skip promotion
		// rather than fight the serving path for VRAM.
		return false
	}
	if e.dev == nil {
		e.dev = map[string]*devCopy{}
	}
	e.dev[instance] = &devCopy{block: b, slot: heapSlot{e: e}}
	c.devBytes[instance] += e.blockBytes
	if p := e.parent; p != nil {
		p.dev[instance].children++
		c.refile(p)
	}
	e.lastUse = now
	c.refile(e)
	c.st.promotions++
	return true
}

// Insert records the full block-aligned prefix of a freshly computed prompt,
// given as its ChunkHashes over tokens/BlockTokens() blocks (extra hashes
// are ignored).
// The KV payload is already on the computing instance; the host copy rides
// along the existing prefill→decode offload path, so insertion charges no
// additional transfer in the latency model (see DESIGN.md §12). Existing
// entries along the path are refreshed; missing ones are allocated from the
// host pool, evicting unpinned leaves as needed. Insertion stops early if
// the budget cannot be met — the cached chain is still valid, just shorter.
func (c *Cache) Insert(m string, shape model.KVShape, hashes []uint64, tokens int, now sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()

	nblocks := tokens / c.block
	if nblocks <= 0 {
		return
	}
	ci, err := c.ensureClass(m, shape)
	if err != nil {
		return
	}
	hashes = prefix(hashes, nblocks)
	idx := c.index[m]
	if idx == nil {
		idx = map[uint64]*entry{}
		c.index[m] = idx
	}
	c.st.inserts++

	// Pin the path as it is walked/built so eviction triggered for block k
	// cannot reclaim the blocks 0..k-1 just traversed or created.
	var path []*entry
	defer func() {
		for _, e := range path {
			e.refs--
			c.refile(e)
		}
	}()

	var parent *entry
	for k, hsh := range hashes {
		if e := idx[hsh]; e != nil {
			e.lastUse = now
			e.refs++
			c.refile(e)
			path = append(path, e)
			parent = e
			continue
		}
		if !c.ensureHostRoom(ci.blockBytes) {
			return
		}
		b, err := c.host.Pool().Alloc(ci.id)
		if err != nil {
			// Host pool exhausted by sequence swap-outs; make one more
			// attempt after evicting, then give up on the tail.
			if !c.evictHostOne() {
				return
			}
			if b, err = c.host.Pool().Alloc(ci.id); err != nil {
				return
			}
		}
		e := &entry{
			model:      m,
			hash:       hsh,
			depth:      k + 1,
			parent:     parent,
			refs:       1,
			lastUse:    now,
			blockBytes: ci.blockBytes,
			hostBlock:  b,
		}
		e.host.e = e
		if parent != nil {
			parent.children++
			c.refile(parent)
		}
		idx[hsh] = e
		c.hostBytes += ci.blockBytes
		c.st.insertedBlocks++
		path = append(path, e)
		parent = e
	}
}

// ensureHostRoom evicts until one more block of size bb fits the budget.
func (c *Cache) ensureHostRoom(bb int64) bool {
	for c.hostBytes+bb > c.cfg.HostBytes {
		if !c.evictHostOne() {
			return false
		}
	}
	return true
}

// evictHostOne removes one unpinned leaf from the host tier (and with it any
// device copies). Returns false when every entry is pinned or interior.
func (c *Cache) evictHostOne() bool {
	v := c.hostVictims.min()
	if v == nil {
		return false
	}
	c.journalEviction("host_evict", "", v)
	c.removeEntry(v)
	c.st.hostEvictions++
	return true
}

// journalEviction records one eviction victim choice. Caller holds c.mu; the
// journal has its own lock and never calls back into the cache.
func (c *Cache) journalEviction(tier, instance string, v *entry) {
	j := c.cfg.Journal
	if j == nil {
		return
	}
	var at sim.Time
	if c.cfg.Clock != nil {
		at = c.cfg.Clock()
	}
	j.Record(decision.Record{At: at, Kind: decision.KindPrefixEviction,
		Instance: instance, Model: v.model,
		Outcome: tier,
		Reason:  c.cfg.Policy.String() + " victim " + fmt.Sprintf("%x@%d", v.hash, v.depth),
		Inputs: []decision.Term{
			{Name: "depth", Value: float64(v.depth)},
			{Name: "hits", Value: float64(v.hits)},
			decision.NsTerm("last_use", v.lastUse),
			{Name: "block_bytes", Value: float64(v.blockBytes)},
		}})
}

// hostVictim reports whether e may be evicted from the host tier: it is an
// unpinned leaf.
func (e *entry) hostVictim() bool { return e.refs == 0 && e.children == 0 }

// devVictim reports whether e's device copy d may be evicted from its
// instance: e is unpinned and none of its children hold a copy there.
func (e *entry) devVictim(d *devCopy) bool { return e.refs == 0 && d.children == 0 }

// refile brings e's place in every victim heap up to date after a change to
// its pins, children, device copies or order key. Caller holds c.mu.
func (c *Cache) refile(e *entry) {
	c.hostVictims.file(&e.host, e.hostVictim())
	for inst, d := range e.dev {
		c.devVictims[inst].file(&d.slot, e.devVictim(d))
	}
}

// less is the eviction total order: policy key, then model and hash so ties
// never fall back to map iteration order.
func (c *Cache) less(a, b *entry) bool {
	if c.cfg.Policy == PolicyFreq {
		if a.hits != b.hits {
			return a.hits < b.hits
		}
	}
	if a.lastUse != b.lastUse {
		return a.lastUse < b.lastUse
	}
	if a.model != b.model {
		return a.model < b.model
	}
	return a.hash < b.hash
}

// removeEntry frees an unpinned leaf's host block and device copies and
// unlinks it. Caller holds c.mu.
func (c *Cache) removeEntry(e *entry) {
	if err := c.host.Pool().Free(e.hostBlock); err != nil {
		panic(fmt.Sprintf("prefixcache: host free: %v", err))
	}
	c.hostBytes -= e.blockBytes
	c.hostVictims.file(&e.host, false)
	p := e.parent
	for inst, d := range e.dev {
		c.devVictims[inst].file(&d.slot, false)
		if dev := c.devices[inst]; dev != nil {
			if err := dev.Pool().Free(d.block); err != nil {
				panic(fmt.Sprintf("prefixcache: device free on %s: %v", inst, err))
			}
		}
		c.devBytes[inst] -= e.blockBytes
		if p != nil {
			p.dev[inst].children--
		}
	}
	if p != nil {
		p.children--
		c.refile(p)
	}
	// The model's (possibly now empty) map stays resident: Insert holds a
	// reference to it across evictions it triggers, so dropping it here would
	// orphan the map and lose the entries inserted after the eviction.
	delete(c.index[e.model], e.hash)
}

// ensureDeviceRoom evicts instance-local device copies until bb more bytes
// fit that instance's budget.
func (c *Cache) ensureDeviceRoom(instance string, bb int64) bool {
	budget := c.devBudget[instance]
	for c.devBytes[instance]+bb > budget {
		if !c.evictDeviceOne(instance) {
			return false
		}
	}
	return true
}

// evictDeviceOne drops one unpinned device-leaf copy from instance. The
// host copy stays; only the accelerator copy goes.
func (c *Cache) evictDeviceOne(instance string) bool {
	victims := c.devVictims[instance]
	v := victims.min()
	if v == nil {
		return false
	}
	c.journalEviction("device_evict", instance, v)
	d := v.dev[instance]
	victims.file(&d.slot, false)
	if err := c.devices[instance].Pool().Free(d.block); err != nil {
		panic(fmt.Sprintf("prefixcache: device free on %s: %v", instance, err))
	}
	delete(v.dev, instance)
	c.devBytes[instance] -= v.blockBytes
	if p := v.parent; p != nil {
		p.dev[instance].children--
		c.refile(p)
	}
	c.st.deviceEvictions++
	return true
}

// EvictDeviceBytes is the serving path's pressure valve: when sequence
// allocation on an instance hits OOM, core asks the prefix cache to give
// back up to n bytes of that instance's device copies. Returns bytes freed.
func (c *Cache) EvictDeviceBytes(instance string, n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for freed < n {
		before := c.devBytes[instance]
		if !c.evictDeviceOne(instance) {
			break
		}
		freed += before - c.devBytes[instance]
	}
	return freed
}

// DropInstance forgets every device copy held by a crashed instance without
// returning blocks to its pool — the VRAM died with the process. Future
// promotions to the instance stop until it is re-attached. Every copy on the
// instance goes at once, so the per-copy child counts and the instance's
// victim heap go with them.
func (c *Cache) DropInstance(instance string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, idx := range c.index {
		for _, e := range idx {
			if _, ok := e.dev[instance]; ok {
				delete(e.dev, instance)
				c.st.deviceDrops++
			}
		}
	}
	c.devBytes[instance] = 0
	delete(c.devices, instance)
	delete(c.devBudget, instance)
	delete(c.devVictims, instance)
}

// MatchTokensOn reports, without mutating any state, how many prompt tokens
// an instance could serve from cache (total) and how many of those are
// already resident on its device tier. hashes are as for Acquire. The
// router's placement score is built from this.
func (c *Cache) MatchTokensOn(instance, m string, hashes []uint64, tokens int) (matched, onDevice int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	chain := c.walk(m, prefix(hashes, (tokens-1)/c.block))
	devDepth := 0
	for i, e := range chain {
		if i == devDepth {
			if _, ok := e.dev[instance]; ok {
				devDepth++
			}
		}
	}
	return len(chain) * c.block, devDepth * c.block
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Lookups:               c.st.lookups,
		Hits:                  c.st.hits,
		TokensSaved:           c.st.tokensSaved,
		PrefillTokens:         c.st.prefillTokens,
		Inserts:               c.st.inserts,
		HostEvictions:         c.st.hostEvictions,
		DeviceEvictions:       c.st.deviceEvictions,
		Promotions:            c.st.promotions,
		DeviceDrops:           c.st.deviceDrops,
		HostBytes:             c.hostBytes,
		PerModel:              map[string]ModelStats{},
		DeviceBytesByInstance: map[string]int64{},
	}
	for m, ms := range c.perModel {
		s.PerModel[m] = *ms
	}
	for inst, b := range c.devBytes {
		if b != 0 {
			s.DeviceBytesByInstance[inst] = b
		}
		s.DeviceBytes += b
	}
	for _, idx := range c.index {
		for _, e := range idx {
			s.HostEntries++
			s.DeviceCopies += len(e.dev)
			if e.refs > 0 {
				s.PinnedEntries++
			}
		}
	}
	return s
}

// PinnedEntries returns the number of entries with a nonzero refcount. At
// quiescence (no in-flight prefill) it must be zero — the chaos invariants
// check exactly that.
func (c *Cache) PinnedEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, idx := range c.index {
		for _, e := range idx {
			if e.refs > 0 {
				n++
			}
		}
	}
	return n
}

// HostResidentBytes returns bytes of the shared CPU pool held by the cache.
func (c *Cache) HostResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hostBytes
}

// DeviceResidentBytes returns bytes of an instance's GPU pool held by the
// cache's device copies there.
func (c *Cache) DeviceResidentBytes(instance string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.devBytes[instance]
}

// CheckConsistency audits internal invariants and returns human-readable
// violations (empty when healthy): byte accounting matches entry sums,
// child/device-child counts match links, device residency is root-contiguous,
// every non-root entry's parent is resident, no refcount is negative, and
// each victim heap holds exactly its tier's eligible entries, each at the
// position its slot records, in heap order.
func (c *Cache) CheckConsistency() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bad []string
	var hostSum int64
	devSum := map[string]int64{}
	children := map[*entry]int{}
	type devKey struct {
		e    *entry
		inst string
	}
	devChildren := map[devKey]int{}
	var all []*entry
	for _, idx := range c.index {
		for _, e := range idx {
			all = append(all, e)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].model != all[j].model {
			return all[i].model < all[j].model
		}
		return all[i].hash < all[j].hash
	})
	for _, e := range all {
		hostSum += e.blockBytes
		for inst := range e.dev {
			devSum[inst] += e.blockBytes
		}
		if e.refs < 0 {
			bad = append(bad, fmt.Sprintf("entry %s/%x: negative refcount %d", e.model, e.hash, e.refs))
		}
		if e.parent != nil {
			children[e.parent]++
			if c.index[e.parent.model][e.parent.hash] != e.parent {
				bad = append(bad, fmt.Sprintf("entry %s/%x depth %d: parent not resident", e.model, e.hash, e.depth))
			}
			for inst := range e.dev {
				devChildren[devKey{e.parent, inst}]++
				if e.parent.dev[inst] == nil {
					bad = append(bad, fmt.Sprintf("entry %s/%x depth %d: device copy on %s without its parent's", e.model, e.hash, e.depth, inst))
				}
			}
		}
	}
	for _, e := range all {
		if e.children != children[e] {
			bad = append(bad, fmt.Sprintf("entry %s/%x: children=%d, actual %d", e.model, e.hash, e.children, children[e]))
		}
		for inst, d := range e.dev {
			if n := devChildren[devKey{e, inst}]; d.children != n {
				bad = append(bad, fmt.Sprintf("entry %s/%x: device children on %s=%d, actual %d", e.model, e.hash, inst, d.children, n))
			}
		}
	}
	if hostSum != c.hostBytes {
		bad = append(bad, fmt.Sprintf("host bytes: tracked %d, entries sum %d", c.hostBytes, hostSum))
	}
	for inst, b := range c.devBytes {
		if b != devSum[inst] {
			bad = append(bad, fmt.Sprintf("device bytes on %s: tracked %d, entries sum %d", inst, b, devSum[inst]))
		}
	}
	bad = append(bad, c.hostVictims.audit("host", all, func(e *entry) (*heapSlot, bool) {
		return &e.host, e.hostVictim()
	})...)
	insts := make([]string, 0, len(c.devVictims))
	for inst := range c.devVictims {
		insts = append(insts, inst)
	}
	sort.Strings(insts)
	for _, inst := range insts {
		bad = append(bad, c.devVictims[inst].audit("device "+inst, all, func(e *entry) (*heapSlot, bool) {
			d := e.dev[inst]
			if d == nil {
				return nil, false
			}
			return &d.slot, e.devVictim(d)
		})...)
	}
	for inst := range devSum {
		if c.devVictims[inst] == nil {
			bad = append(bad, fmt.Sprintf("device copies on %s, which has no victim heap", inst))
		}
	}
	return bad
}
