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
// (last use, model, hash), never by map iteration order, so simulations
// replay identically.
package prefixcache

import (
	"fmt"
	"slices"
	"sort"

	"aegaeon/internal/chunk"
	"aegaeon/internal/decision"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// Config parameterizes the cache.
type Config struct {
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

// Residency caps.
const (
	// hostShare caps host-tier residency at 1/hostShare of the host KV pool:
	// the pool is shared with sequence swap-out, and the cache must not
	// starve it.
	hostShare = 4
	// deviceShare caps each device tier at 1/deviceShare of the instance's
	// GPU KV pool.
	deviceShare = 8
)

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

	dev []*devCopy // by device tier index; nil where the tier holds no copy
}

// copyOn returns e's copy on device tier t, or nil.
func (e *entry) copyOn(t int) *devCopy {
	if t < 0 || t >= len(e.dev) {
		return nil
	}
	return e.dev[t]
}

// devCopy is an entry's copy on one instance's device tier. Device residency
// is root-contiguous per instance, so a copy's children hold copies only
// where their parent does.
type devCopy struct {
	block    memory.Block
	children int      // children holding a copy on the same instance
	slot     heapSlot // place among that instance's device victims
}

// devTier is one prefill instance's device tier. Tiers are numbered densely
// in attach order; an entry's copies are indexed by that number.
type devTier struct {
	name    string
	cache   *kvcache.Cache // nil once the instance is dropped, until re-attached
	budget  int64
	bytes   int64
	victims victimHeap // unpinned device leaves on this tier
}

// Cache is the global prefix cache.
type Cache struct {
	cfg     Config
	host    *kvcache.Cache
	hostCap int64 // host-tier residency cap

	tiers  []devTier
	tierOf map[string]int // instance -> index into tiers

	block   int                          // tokens per block
	index   map[string]map[uint64]*entry // model -> chunk hash -> entry
	classes map[string]classInfo         // model -> host-registered class

	hostBytes int64

	// Eviction candidates among unpinned host leaves, kept current on every
	// pin, unpin and touch. Each device tier keeps its own.
	hostVictims victimHeap

	// Recycled storage: host-evicted entries, evicted or dropped device
	// copies, and entries' copy slots. scratch holds the chain of the
	// current walk or insert.
	entries chunk.Pool[entry]
	copies  chunk.Pool[devCopy]
	slots   chunk.Pool[*devCopy]
	scratch []*entry
	jot     decision.Scratch // an eviction record's inputs

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
	c := &Cache{
		cfg:      cfg,
		host:     host,
		hostCap:  host.Pool().Capacity() / hostShare,
		tierOf:   map[string]int{},
		block:    host.BlockTokens(),
		index:    map[string]map[uint64]*entry{},
		classes:  map[string]classInfo{},
		perModel: map[string]*ModelStats{},
	}
	return c
}

// AttachDevice registers an instance's GPU KV cache as a device tier and
// returns the tier's index, the position of its device-resident depth in
// Match's result. Promotions for that instance allocate from it. Attaching
// a name again (after DropInstance) reuses its index. The granularity must
// match the host tier's.
func (c *Cache) AttachDevice(instance string, dev *kvcache.Cache) int {
	if dev.BlockTokens() != c.block {
		panic(fmt.Sprintf("prefixcache: device tier %s block tokens %d != host %d",
			instance, dev.BlockTokens(), c.block))
	}
	t, ok := c.tierOf[instance]
	if !ok {
		t = len(c.tiers)
		c.tierOf[instance] = t
		c.tiers = append(c.tiers, devTier{name: instance})
	}
	tier := &c.tiers[t]
	tier.cache = dev
	tier.budget = dev.Pool().Capacity() / deviceShare
	return t
}

// tierIndex returns the instance's device tier index, or -1 when it was
// never attached.
func (c *Cache) tierIndex(instance string) int {
	if t, ok := c.tierOf[instance]; ok {
		return t
	}
	return -1
}

// freeCopy zeroes and recycles a device copy that has left its heap.
func (c *Cache) freeCopy(d *devCopy) {
	*d = devCopy{}
	c.copies.Free(d)
}

// setCopy records d as e's copy on tier t, first giving e one slot per
// attached tier if it has fewer. A recycled entry keeps its slots.
func (c *Cache) setCopy(e *entry, t int, d *devCopy) {
	if t >= len(e.dev) {
		slots := c.slots.Get(len(c.tiers))[:len(c.tiers)]
		copy(slots, e.dev)
		c.slots.Put(e.dev)
		e.dev = slots
	}
	e.dev[t] = d
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
// the walk stops at the first absent chunk hash. The chain lives in the
// cache's scratch buffer and is valid until the next walk or insert.
func (c *Cache) walk(m string, hashes []uint64) []*entry {
	chain := c.scratch[:0]
	if idx := c.index[m]; idx != nil {
		for _, h := range hashes {
			e := idx[h]
			if e == nil {
				break
			}
			chain = append(chain, e)
		}
	}
	c.scratch = chain
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

	c.st.lookups++
	c.st.prefillTokens += uint64(tokens)
	ms := c.modelStats(m)
	ms.Lookups++

	walked := c.walk(m, prefix(hashes, (tokens-1)/c.block))
	if len(walked) == 0 {
		return nil
	}

	chain := make([]*entry, len(walked))
	copy(chain, walked)
	h := &Hit{c: c, instance: instance, chain: chain}
	t := c.tierIndex(instance)
	devDepth := 0
	for i, e := range chain {
		e.refs++
		e.hits++
		e.lastUse = now
		c.refile(e)
		if i == devDepth && e.copyOn(t) != nil {
			devDepth++
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
// than once; only the first call acts. It drops the hit's chain: once
// unpinned, its entries may be evicted and recycled.
func (h *Hit) Release(now sim.Time) {
	if h == nil || h.released {
		return
	}
	h.released = true
	c := h.c
	// Promote root-first so device residency stays contiguous from the
	// prompt start (a device walk stops at the first non-resident block, so
	// a gap would strand everything after it). The chain stays pinned until
	// promotion ends, so making room for one entry never evicts the copies
	// of its ancestors: those copies are what make it reachable.
	if t := c.tierIndex(h.instance); t >= 0 && c.tiers[t].cache != nil {
		for _, e := range h.chain {
			if e.copyOn(t) != nil {
				continue
			}
			if !c.promote(e, t, now) {
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
	h.chain = nil
}

// promote gives e a device copy on tier t.
func (c *Cache) promote(e *entry, t int, now sim.Time) bool {
	ci, ok := c.classes[e.model]
	if !ok {
		return false
	}
	if !c.ensureDeviceRoom(t, e.blockBytes) {
		return false
	}
	tier := &c.tiers[t]
	id, err := tier.cache.RegisterShape(ci.shape)
	if err != nil {
		return false
	}
	b, err := tier.cache.Pool().Alloc(id)
	if err != nil {
		// The instance's GPU pool is full of sequence KV; skip promotion
		// rather than fight the serving path for VRAM.
		return false
	}
	d := c.copies.New()
	*d = devCopy{block: b, slot: heapSlot{e: e}}
	c.setCopy(e, t, d)
	tier.bytes += e.blockBytes
	if p := e.parent; p != nil {
		p.dev[t].children++
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
	// cannot reclaim the blocks 0..k-1 just traversed or created. The path
	// lives in the scratch buffer; nothing below walks.
	path := c.scratch[:0]
	defer func() {
		for _, e := range path {
			e.refs--
			c.refile(e)
		}
		c.scratch = path
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
		// A recycled entry keeps its copy slots, all nil since its removal.
		e := c.entries.New()
		*e = entry{model: m, hash: hsh, depth: k + 1, parent: parent, refs: 1, lastUse: now,
			blockBytes: ci.blockBytes, hostBlock: b, dev: e.dev}
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
	for c.hostBytes+bb > c.hostCap {
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

// journalEviction records one eviction victim choice. The journal never
// calls back into the cache.
func (c *Cache) journalEviction(tier, instance string, v *entry) {
	j := c.cfg.Journal
	if j == nil {
		return
	}
	var at sim.Time
	if c.cfg.Clock != nil {
		at = c.cfg.Clock()
	}
	c.jot.Reset()
	j.Record(decision.Record{At: at, Kind: decision.KindPrefixEviction,
		Instance: instance, Model: v.model,
		Outcome: tier,
		Reason:  fmt.Sprintf("lru victim %x@%d", v.hash, v.depth),
		Inputs: c.jot.Terms(
			decision.Term{Name: "depth", Value: float64(v.depth)},
			decision.Term{Name: "hits", Value: float64(v.hits)},
			decision.NsTerm("last_use", v.lastUse),
			decision.Term{Name: "block_bytes", Value: float64(v.blockBytes)},
		)})
}

// hostVictim reports whether e may be evicted from the host tier: it is an
// unpinned leaf.
func (e *entry) hostVictim() bool { return e.refs == 0 && e.children == 0 }

// devVictim reports whether e's device copy d may be evicted from its
// instance: e is unpinned and none of its children hold a copy there.
func (e *entry) devVictim(d *devCopy) bool { return e.refs == 0 && d.children == 0 }

// refile brings e's place in every victim heap up to date after a change to
// its pins, children, device copies or order key.
func (c *Cache) refile(e *entry) {
	c.hostVictims.file(&e.host, e.hostVictim())
	for t, d := range e.dev {
		if d != nil {
			c.tiers[t].victims.file(&d.slot, e.devVictim(d))
		}
	}
}

// removeEntry frees an unpinned leaf's host block and device copies,
// unlinks it and recycles it.
func (c *Cache) removeEntry(e *entry) {
	if err := c.host.Pool().Free(e.hostBlock); err != nil {
		panic(fmt.Sprintf("prefixcache: host free: %v", err))
	}
	c.hostBytes -= e.blockBytes
	c.hostVictims.file(&e.host, false)
	p := e.parent
	for t, d := range e.dev {
		if d == nil {
			continue
		}
		tier := &c.tiers[t]
		tier.victims.file(&d.slot, false)
		if tier.cache != nil {
			if err := tier.cache.Pool().Free(d.block); err != nil {
				panic(fmt.Sprintf("prefixcache: device free on %s: %v", tier.name, err))
			}
		}
		tier.bytes -= e.blockBytes
		if p != nil {
			p.dev[t].children--
		}
		e.dev[t] = nil
		c.freeCopy(d)
	}
	if p != nil {
		p.children--
		c.refile(p)
	}
	// The model's (possibly now empty) map stays resident: Insert holds a
	// reference to it across evictions it triggers, so dropping it here would
	// orphan the map and lose the entries inserted after the eviction.
	delete(c.index[e.model], e.hash)
	*e = entry{dev: e.dev}
	c.entries.Free(e)
}

// ensureDeviceRoom evicts tier-local device copies until bb more bytes fit
// that tier's budget.
func (c *Cache) ensureDeviceRoom(t int, bb int64) bool {
	tier := &c.tiers[t]
	for tier.bytes+bb > tier.budget {
		if !c.evictDeviceOne(t) {
			return false
		}
	}
	return true
}

// evictDeviceOne drops one unpinned device-leaf copy from tier t and
// recycles it. The host copy stays; only the accelerator copy goes.
func (c *Cache) evictDeviceOne(t int) bool {
	tier := &c.tiers[t]
	v := tier.victims.min()
	if v == nil {
		return false
	}
	c.journalEviction("device_evict", tier.name, v)
	d := v.dev[t]
	tier.victims.file(&d.slot, false)
	if err := tier.cache.Pool().Free(d.block); err != nil {
		panic(fmt.Sprintf("prefixcache: device free on %s: %v", tier.name, err))
	}
	v.dev[t] = nil
	c.freeCopy(d)
	tier.bytes -= v.blockBytes
	if p := v.parent; p != nil {
		p.dev[t].children--
		c.refile(p)
	}
	c.st.deviceEvictions++
	return true
}

// EvictDeviceBytes is the serving path's pressure valve: when sequence
// allocation on an instance hits OOM, core asks the prefix cache to give
// back up to n bytes of that instance's device copies. Returns bytes freed.
func (c *Cache) EvictDeviceBytes(instance string, n int64) int64 {
	t := c.tierIndex(instance)
	if t < 0 {
		return 0
	}
	var freed int64
	for freed < n {
		before := c.tiers[t].bytes
		if !c.evictDeviceOne(t) {
			break
		}
		freed += before - c.tiers[t].bytes
	}
	return freed
}

// DropInstance forgets every device copy held by a crashed instance without
// returning blocks to its pool — the VRAM died with the process. Future
// promotions to the instance stop until it is re-attached. Every copy on the
// instance goes at once, so the per-copy child counts and the tier's victim
// heap go with them; the tier keeps its index.
func (c *Cache) DropInstance(instance string) {
	t := c.tierIndex(instance)
	if t < 0 {
		return
	}
	for _, idx := range c.index {
		for _, e := range idx {
			if d := e.copyOn(t); d != nil {
				e.dev[t] = nil
				c.freeCopy(d)
				c.st.deviceDrops++
			}
		}
	}
	tier := &c.tiers[t]
	tier.cache = nil
	tier.bytes = 0
	clear(tier.victims.slots)
	tier.victims.slots = tier.victims.slots[:0]
}

// Match reports, without touching any entry, how many prompt tokens the
// cache could serve (matched) and how many of those are already resident
// on each device tier, contiguous from the prompt start: onDevice[t] for the
// tier AttachDevice numbered t. One walk serves every tier. onDevice is
// reused when it has room, so a caller that keeps the returned slice
// allocates nothing. hashes and tokens are as for Acquire. The router's
// placement score is built from this.
func (c *Cache) Match(m string, hashes []uint64, tokens int, onDevice []int) (matched int, _ []int) {
	chain := c.walk(m, prefix(hashes, (tokens-1)/c.block))
	onDevice = slices.Grow(onDevice[:0], len(c.tiers))[:len(c.tiers)]
	clear(onDevice)
	// onDevice counts blocks until the end: a tier is still contiguous at
	// chain position i exactly when it holds i blocks.
	for i, e := range chain {
		extended := false
		for t, d := range e.dev {
			if d != nil && onDevice[t] == i {
				onDevice[t]++
				extended = true
			}
		}
		if !extended {
			break
		}
	}
	for t := range onDevice {
		onDevice[t] *= c.block
	}
	return len(chain) * c.block, onDevice
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
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
	for _, tier := range c.tiers {
		if tier.bytes != 0 {
			s.DeviceBytesByInstance[tier.name] = tier.bytes
		}
		s.DeviceBytes += tier.bytes
	}
	for _, idx := range c.index {
		for _, e := range idx {
			s.HostEntries++
			for _, d := range e.dev {
				if d != nil {
					s.DeviceCopies++
				}
			}
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
	return c.hostBytes
}

// DeviceResidentBytes returns bytes of an instance's GPU pool held by the
// cache's device copies there.
func (c *Cache) DeviceResidentBytes(instance string) int64 {
	if t := c.tierIndex(instance); t >= 0 {
		return c.tiers[t].bytes
	}
	return 0
}

// CheckConsistency audits internal invariants and returns human-readable
// violations (empty when healthy): byte accounting matches entry sums,
// child/device-child counts match links, device residency is root-contiguous,
// every non-root entry's parent is resident, no refcount is negative, no
// copy sits on a detached tier, and each victim heap holds exactly its
// tier's eligible entries, each at the position its slot records, in heap
// order.
func (c *Cache) CheckConsistency() []string {
	var bad []string
	var hostSum int64
	devSum := make([]int64, len(c.tiers))
	children := map[*entry]int{}
	type devKey struct {
		e *entry
		t int
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
		if len(e.dev) > len(c.tiers) {
			bad = append(bad, fmt.Sprintf("entry %s/%x: %d copy slots for %d tiers", e.model, e.hash, len(e.dev), len(c.tiers)))
			continue
		}
		for t, d := range e.dev {
			if d == nil {
				continue
			}
			devSum[t] += e.blockBytes
			if c.tiers[t].cache == nil {
				bad = append(bad, fmt.Sprintf("entry %s/%x: device copy on %s, which is detached", e.model, e.hash, c.tiers[t].name))
			}
		}
		if e.refs < 0 {
			bad = append(bad, fmt.Sprintf("entry %s/%x: negative refcount %d", e.model, e.hash, e.refs))
		}
		if e.parent != nil {
			children[e.parent]++
			if c.index[e.parent.model][e.parent.hash] != e.parent {
				bad = append(bad, fmt.Sprintf("entry %s/%x depth %d: parent not resident", e.model, e.hash, e.depth))
			}
			for t, d := range e.dev {
				if d == nil {
					continue
				}
				devChildren[devKey{e.parent, t}]++
				if e.parent.copyOn(t) == nil {
					bad = append(bad, fmt.Sprintf("entry %s/%x depth %d: device copy on %s without its parent's", e.model, e.hash, e.depth, c.tiers[t].name))
				}
			}
		}
	}
	for _, e := range all {
		if e.children != children[e] {
			bad = append(bad, fmt.Sprintf("entry %s/%x: children=%d, actual %d", e.model, e.hash, e.children, children[e]))
		}
		for t, d := range e.dev {
			if d == nil {
				continue
			}
			if n := devChildren[devKey{e, t}]; d.children != n {
				bad = append(bad, fmt.Sprintf("entry %s/%x: device children on %s=%d, actual %d", e.model, e.hash, c.tiers[t].name, d.children, n))
			}
		}
	}
	if hostSum != c.hostBytes {
		bad = append(bad, fmt.Sprintf("host bytes: tracked %d, entries sum %d", c.hostBytes, hostSum))
	}
	for t := range c.tiers {
		if b := c.tiers[t].bytes; b != devSum[t] {
			bad = append(bad, fmt.Sprintf("device bytes on %s: tracked %d, entries sum %d", c.tiers[t].name, b, devSum[t]))
		}
	}
	bad = append(bad, c.hostVictims.audit("host", all, func(e *entry) (*heapSlot, bool) {
		return &e.host, e.hostVictim()
	})...)
	for t := range c.tiers {
		bad = append(bad, c.tiers[t].victims.audit("device "+c.tiers[t].name, all, func(e *entry) (*heapSlot, bool) {
			d := e.copyOn(t)
			if d == nil {
				return nil, false
			}
			return &d.slot, e.devVictim(d)
		})...)
	}
	return bad
}
