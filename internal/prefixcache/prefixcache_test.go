package prefixcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"aegaeon/internal/decision"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

const testBlkTok = 16

// testShape is a tiny KV geometry: 128 B/token, 2 KiB per 16-token block.
var testShape = model.KVShape{Layers: 2, KVHeads: 2, HeadDim: 8, BytesPerElem: 2}

var testBlockBytes = testShape.BytesPerToken() * testBlkTok

func newHost() *kvcache.Cache {
	return kvcache.NewCache("cpu", 1<<20, 1<<14, testBlkTok)
}

// hostFor returns a host tier whose prefix-cache cap, a quarter of the pool,
// is the given number of blocks.
func hostFor(blocks int) *kvcache.Cache {
	return kvcache.NewCache("cpu", int64(blocks)*hostShare*testBlockBytes, testBlockBytes, testBlkTok)
}

// deviceFor returns a device tier whose prefix-cache cap, an eighth of the
// pool, is the given number of blocks.
func deviceFor(name string, blocks int) *kvcache.Cache {
	return kvcache.NewCache(name, int64(blocks)*deviceShare*testBlockBytes, testBlockBytes, testBlkTok)
}

func seg(seed uint64, n int) workload.PromptSeg { return workload.PromptSeg{Seed: seed, Len: n} }

// chunks hashes every whole block of a prompt once, as a request does.
func chunks(segs []workload.PromptSeg) []uint64 {
	return ChunkHashes(segs, SegTokens(segs)/testBlkTok, testBlkTok)
}

// matchOn is one instance's view of Match: the tokens the cache could
// serve, and how many of those are already on the instance's device tier.
func matchOn(c *Cache, instance, m string, hashes []uint64, tokens int) (matched, onDevice int) {
	matched, dev := c.Match(m, hashes, tokens, nil)
	c.mu.Lock()
	t := c.tierIndex(instance)
	c.mu.Unlock()
	if t >= 0 {
		onDevice = dev[t]
	}
	return matched, onDevice
}

// TestChunkHashesGolden pins the chained chunk-hash values so index contents
// stay stable across refactors, and exercises the partial-match geometry:
// empty prompts, exact matches, matches ending exactly at a block boundary,
// and divergent suffixes.
func TestChunkHashesGolden(t *testing.T) {
	// A is one 32-token stream; B re-generates A's first 16 tokens from the
	// same seed, then diverges. With block 4: 8 chunks each, first 4 shared.
	segA := []workload.PromptSeg{seg(0x1111, 32)}
	segB := []workload.PromptSeg{seg(0x1111, 16), seg(0x2222, 16)}
	goldenA := []uint64{
		0x3c29c5ce86fb530f, 0xabd892df2b690057, 0x7b137fc647f3c5ce, 0x97a3ed7c8bc6091a,
		0x8164cb6d0a35afa8, 0x17b5ffc404a344f3, 0xd908abf506f95a77, 0x236bf9e6d7ab90d4,
	}
	goldenB := []uint64{
		0x3c29c5ce86fb530f, 0xabd892df2b690057, 0x7b137fc647f3c5ce, 0x97a3ed7c8bc6091a,
		0xa3b58085e3557547, 0x37c631d7672b0e44, 0x6f7ea885d7458982, 0x1a749434cebbe35a,
	}

	// Empty inputs produce no chunks.
	if got := ChunkHashes(nil, 4, 4); len(got) != 0 {
		t.Errorf("empty segs: %d chunks", len(got))
	}
	if got := ChunkHashes([]workload.PromptSeg{seg(1, 3)}, 4, 4); len(got) != 0 {
		t.Errorf("sub-block prompt: %d chunks", len(got))
	}
	if got := ChunkHashes(segA, 0, 4); len(got) != 0 {
		t.Errorf("nblocks=0: %d chunks", len(got))
	}

	// Exact: recomputation is bit-stable and equals the golden values.
	gotA := ChunkHashes(segA, 8, 4)
	if len(gotA) != len(goldenA) {
		t.Fatalf("A: %d chunks, want %d", len(gotA), len(goldenA))
	}
	for i := range goldenA {
		if gotA[i] != goldenA[i] {
			t.Errorf("A chunk %d = %#x, want %#x", i, gotA[i], goldenA[i])
		}
	}

	// Block boundary: B matches A for exactly the 4 chunks covering the
	// shared 16 tokens, then every later chunk differs (the chain folds the
	// divergence into all following hashes).
	gotB := ChunkHashes(segB, 8, 4)
	for i := range goldenB {
		if gotB[i] != goldenB[i] {
			t.Errorf("B chunk %d = %#x, want %#x", i, gotB[i], goldenB[i])
		}
	}
	for i := 0; i < 4; i++ {
		if gotA[i] != gotB[i] {
			t.Errorf("shared prefix chunk %d differs", i)
		}
	}
	for i := 4; i < 8; i++ {
		if gotA[i] == gotB[i] {
			t.Errorf("divergent-suffix chunk %d collides", i)
		}
	}

	// nblocks caps at the available whole blocks.
	if got := ChunkHashes(segA, 100, 4); len(got) != 8 {
		t.Errorf("over-asked: %d chunks, want 8", len(got))
	}
	// A fully different stream shares nothing.
	other := ChunkHashes([]workload.PromptSeg{seg(0x9999, 32)}, 8, 4)
	if other[0] == gotA[0] {
		t.Error("independent streams share chunk 0")
	}
}

// Chained hashes are prefix-stable: hashing n blocks gives the first n
// hashes of any longer hashing of the same prompt, capped at its whole
// blocks. A request therefore hashes its prompt once and every lookup or
// insert reads a prefix of that slice.
func TestChunkHashesPrefixStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var segs []workload.PromptSeg
		for i := 1 + rng.Intn(4); i > 0; i-- {
			segs = append(segs, seg(rng.Uint64(), 1+rng.Intn(70)))
		}
		block := 1 + rng.Intn(20)
		full := ChunkHashes(segs, SegTokens(segs)/block+3, block)
		if len(full) != SegTokens(segs)/block {
			t.Fatalf("trial %d: %d hashes for %d whole blocks", trial, len(full), SegTokens(segs)/block)
		}
		for n := 0; n <= len(full)+2; n++ {
			got := ChunkHashes(segs, n, block)
			if want := prefix(full, n); !slices.Equal(got, want) {
				t.Fatalf("trial %d: ChunkHashes(n=%d) = %x, want prefix %x", trial, n, got, want)
			}
		}
	}
}

// tokenAtRef is the reference for ChunkHashes' one-pass segment walk: it
// finds each position's token by rescanning the segment list from the
// start. Positions beyond the segments return 0.
func tokenAtRef(segs []workload.PromptSeg, pos int) uint64 {
	for _, s := range segs {
		if pos < s.Len {
			return splitmix64(s.Seed ^ splitmix64(uint64(pos)+1))
		}
		pos -= s.Len
	}
	return 0
}

// chunkHashesRef is ChunkHashes over tokenAtRef.
func chunkHashesRef(segs []workload.PromptSeg, nblocks, block int) []uint64 {
	if nblocks <= 0 || block <= 0 {
		return nil
	}
	nblocks = min(nblocks, SegTokens(segs)/block)
	out := make([]uint64, 0, nblocks)
	h := uint64(0x61656761656f6e00)
	for pos := 0; pos < nblocks*block; pos++ {
		h = splitmix64(h ^ tokenAtRef(segs, pos))
		if (pos+1)%block == 0 {
			out = append(out, h)
		}
	}
	return out
}

// TestChunkHashesMatchesReference is the differential test of the one-pass
// segment walk: random lists of positive-length segments, some cut to whole
// blocks so boundaries fall between segments as well as inside them.
func TestChunkHashesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		block := 1 + rng.Intn(20)
		var segs []workload.PromptSeg
		for i := 1 + rng.Intn(8); i > 0; i-- {
			n := 1 + rng.Intn(3*block)
			if rng.Intn(3) == 0 {
				n = block * (1 + rng.Intn(3)) // whole blocks: runs of these end on boundaries
			}
			segs = append(segs, seg(rng.Uint64(), n))
		}
		nblocks := rng.Intn(SegTokens(segs)/block + 2)
		got, want := ChunkHashes(segs, nblocks, block), chunkHashesRef(segs, nblocks, block)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: segs %v block %d nblocks %d: got %x, want %x", trial, segs, block, nblocks, got, want)
		}
	}
}

func TestAcquireMissInsertHit(t *testing.T) {
	c := New(Config{}, newHost())
	segs := []workload.PromptSeg{seg(7, 64)}

	if h := c.Acquire("p0", "m", testShape, chunks(segs), 64, 0); h != nil {
		t.Fatal("hit on empty cache")
	}
	c.Insert("m", testShape, chunks(segs), 64, 1)

	// 64-token prompt: the match is capped one token short, so 3 of the 4
	// cached blocks match.
	h := c.Acquire("p0", "m", testShape, chunks(segs), 64, 2)
	if h == nil {
		t.Fatal("miss after insert")
	}
	if h.MatchedTokens != 48 || h.DeviceTokens != 0 {
		t.Fatalf("matched %d (device %d), want 48 (0)", h.MatchedTokens, h.DeviceTokens)
	}
	if h.HostBytes != 3*testBlockBytes || h.DeviceBytes != 0 {
		t.Fatalf("host bytes %d, want %d", h.HostBytes, 3*testBlockBytes)
	}
	if got := c.PinnedEntries(); got != 3 {
		t.Fatalf("pinned = %d during hit, want 3", got)
	}
	h.Release(3)
	h.Release(3) // idempotent
	if got := c.PinnedEntries(); got != 0 {
		t.Fatalf("pinned = %d after release, want 0", got)
	}

	// A longer prompt extending the same stream matches all 4 blocks.
	long := []workload.PromptSeg{seg(7, 96)}
	h2 := c.Acquire("p0", "m", testShape, chunks(long), 96, 4)
	if h2 == nil || h2.MatchedTokens != 64 {
		t.Fatalf("extended prompt matched %v, want 64", h2)
	}
	h2.Release(5)

	st := c.Stats()
	if st.Lookups != 3 || st.Hits != 2 || st.TokensSaved != 48+64 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HostEntries != 4 || st.HostBytes != 4*testBlockBytes {
		t.Fatalf("residency = %d entries / %d bytes", st.HostEntries, st.HostBytes)
	}
	if ms := st.PerModel["m"]; ms.Hits != 2 || ms.TokensSaved != 112 {
		t.Fatalf("per-model = %+v", ms)
	}
	if bad := c.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("consistency: %v", bad)
	}
}

// TestPartialMatchDivergentSuffix: a prompt sharing only the first block of a
// cached chain matches exactly that block.
func TestPartialMatchDivergentSuffix(t *testing.T) {
	c := New(Config{}, newHost())
	c.Insert("m", testShape, chunks([]workload.PromptSeg{seg(1, 32)}), 32, 0)

	div := []workload.PromptSeg{seg(1, 16), seg(2, 16)}
	h := c.Acquire("p0", "m", testShape, chunks(div), 32, 1)
	if h == nil || h.MatchedTokens != 16 {
		t.Fatalf("divergent suffix matched %v, want 16", h)
	}
	h.Release(2)

	// Different model namespaces never cross-match.
	if h := c.Acquire("p0", "other", testShape, chunks([]workload.PromptSeg{seg(1, 32)}), 32, 3); h != nil {
		t.Fatal("cross-model hit")
	}
}

// TestEvictionNeverReclaimsPinned is the eviction-under-pin property test:
// under sustained insert pressure against a tiny budget, chains pinned by
// in-flight hits survive intact, byte accounting matches, and the budget
// holds. Deterministically seeded.
func TestEvictionNeverReclaimsPinned(t *testing.T) {
	budget := 6 * testBlockBytes
	c := New(Config{}, hostFor(6))
	rng := rand.New(rand.NewSource(11))

	type pinned struct {
		h    *Hit
		segs []workload.PromptSeg
	}
	var pins []pinned
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		now++
		switch {
		case len(pins) < 2 && rng.Intn(3) == 0:
			segs := []workload.PromptSeg{seg(rng.Uint64(), 48)}
			c.Insert("m", testShape, chunks(segs), 48, now)
			now++
			if h := c.Acquire("p0", "m", testShape, chunks(segs), 49, now); h != nil {
				pins = append(pins, pinned{h, segs})
			}
		case len(pins) > 0 && rng.Intn(4) == 0:
			pins[0].h.Release(now)
			pins = pins[1:]
		default:
			n := (1 + rng.Intn(3)) * testBlkTok
			c.Insert("m", testShape, chunks([]workload.PromptSeg{seg(rng.Uint64(), n)}), n, now)
		}

		// Invariants after every step.
		if got := c.HostResidentBytes(); got > budget {
			t.Fatalf("step %d: resident %d exceeds budget %d", i, got, budget)
		}
		for _, p := range pins {
			if m, _ := matchOn(c, "p0", "m", chunks(p.segs), 49); m != 48 {
				t.Fatalf("step %d: pinned chain shrank to %d tokens", i, m)
			}
		}
		if i%25 == 0 {
			if bad := c.CheckConsistency(); len(bad) != 0 {
				t.Fatalf("step %d: %v", i, bad)
			}
		}
	}
	for _, p := range pins {
		p.h.Release(now)
	}
	if got := c.PinnedEntries(); got != 0 {
		t.Fatalf("pinned = %d after drain", got)
	}
	if bad := c.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("final consistency: %v", bad)
	}
	if st := c.Stats(); st.HostEvictions == 0 {
		t.Fatalf("no evictions — pressure test exerted no pressure")
	}
}

// TestInsertStopsWhenAllPinned: insertion degrades to a shorter cached chain
// rather than evicting pinned entries.
func TestInsertStopsWhenAllPinned(t *testing.T) {
	c := New(Config{}, hostFor(1))
	a := []workload.PromptSeg{seg(1, 16)}
	c.Insert("m", testShape, chunks(a), 16, 0)
	h := c.Acquire("p0", "m", testShape, chunks(a), 17, 1)
	if h == nil {
		t.Fatal("miss on cached block")
	}
	b := []workload.PromptSeg{seg(2, 16)}
	c.Insert("m", testShape, chunks(b), 16, 2)
	if m, _ := matchOn(c, "p0", "m", chunks(b), 17); m != 0 {
		t.Fatalf("insert displaced a pinned entry (matched %d)", m)
	}
	if m, _ := matchOn(c, "p0", "m", chunks(a), 17); m != 16 {
		t.Fatalf("pinned entry gone (matched %d)", m)
	}
	h.Release(3)
	// Unpinned now: the next insert may evict it.
	c.Insert("m", testShape, chunks(b), 16, 4)
	if m, _ := matchOn(c, "p0", "m", chunks(b), 17); m != 16 {
		t.Fatalf("insert still blocked after release (matched %d)", m)
	}
}

func TestPromotionDeviceTierAndCrash(t *testing.T) {
	host := newHost()
	dev := deviceFor("gpu0", 2)
	c := New(Config{}, host)
	c.AttachDevice("p0", dev)

	segs := []workload.PromptSeg{seg(5, 48)}
	c.Insert("m", testShape, chunks(segs), 48, 0)

	// First reuse: Release promotes root-first until the 2-block device
	// budget is exhausted.
	h := c.Acquire("p0", "m", testShape, chunks(segs), 49, 1)
	if h == nil || h.DeviceTokens != 0 {
		t.Fatalf("first hit = %+v", h)
	}
	h.Release(2)
	if got := c.DeviceResidentBytes("p0"); got != 2*testBlockBytes {
		t.Fatalf("device resident %d, want %d", got, 2*testBlockBytes)
	}
	if used := dev.Pool().UsedBytes(); used != 2*testBlockBytes {
		t.Fatalf("device pool used %d, want %d", used, 2*testBlockBytes)
	}

	// Second reuse sees the contiguous device prefix.
	h = c.Acquire("p0", "m", testShape, chunks(segs), 49, 3)
	if h == nil || h.DeviceTokens != 32 || h.DeviceBytes != 2*testBlockBytes {
		t.Fatalf("second hit = %+v", h)
	}
	if h.HostBytes != testBlockBytes {
		t.Fatalf("host remainder = %d", h.HostBytes)
	}
	h.Release(4)

	// Other instances are blind to p0's copies.
	if _, onDev := matchOn(c, "p1", "m", chunks(segs), 49); onDev != 0 {
		t.Error("device residency leaked across instances")
	}

	// Pressure valve: leaf-only device eviction frees the deepest copy and
	// returns the blocks to the instance pool.
	if freed := c.EvictDeviceBytes("p0", testBlockBytes); freed != testBlockBytes {
		t.Fatalf("EvictDeviceBytes freed %d", freed)
	}
	if used := dev.Pool().UsedBytes(); used != testBlockBytes {
		t.Fatalf("device pool used %d after valve, want %d", used, testBlockBytes)
	}

	// Crash: copies are forgotten without touching the dead pool.
	before := dev.Pool().UsedBytes()
	c.DropInstance("p0")
	if got := c.DeviceResidentBytes("p0"); got != 0 {
		t.Fatalf("device resident %d after crash", got)
	}
	if dev.Pool().UsedBytes() != before {
		t.Error("DropInstance freed blocks into a dead pool")
	}
	st := c.Stats()
	if st.DeviceDrops == 0 || st.DeviceEvictions != 1 || st.Promotions != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if bad := c.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("consistency: %v", bad)
	}
}

// TestConcurrentLookupInsertEvict hammers the cache from four goroutine
// families — acquire/release on shared sessions, inserts of fresh prompts,
// the device pressure valve, and stats/consistency readers — and must pass
// under -race. Refcounts must return to zero and accounting must balance.
func TestConcurrentLookupInsertEvict(t *testing.T) {
	host := hostFor(32)
	dev := deviceFor("gpu0", 8)
	c := New(Config{}, host)
	c.AttachDevice("p0", dev)

	shared := []workload.PromptSeg{seg(0xABCD, 64)}
	c.Insert("m", testShape, chunks(shared), 64, 0)

	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				now := sim.Time(w*iters + i)
				if h := c.Acquire("p0", "m", testShape, chunks(shared), 65, now); h != nil {
					h.Release(now)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < iters; i++ {
			n := (1 + rng.Intn(4)) * testBlkTok
			c.Insert("m", testShape, chunks([]workload.PromptSeg{seg(rng.Uint64(), n)}), n, sim.Time(i))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			c.EvictDeviceBytes("p0", testBlockBytes)
			_, _ = matchOn(c, "p0", "m", chunks(shared), 65)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/8; i++ {
			_ = c.Stats()
			if bad := c.CheckConsistency(); len(bad) != 0 {
				t.Errorf("mid-run consistency: %v", bad)
				return
			}
		}
	}()
	wg.Wait()

	if got := c.PinnedEntries(); got != 0 {
		t.Fatalf("pinned = %d after drain", got)
	}
	if bad := c.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("final consistency: %v", bad)
	}
	st := c.Stats()
	if st.HostBytes != c.HostResidentBytes() {
		t.Fatal("stats/resident divergence")
	}
	if host.Pool().UsedBytes() != st.HostBytes {
		t.Fatalf("host pool used %d != cache accounting %d", host.Pool().UsedBytes(), st.HostBytes)
	}
	if dev.Pool().UsedBytes() != st.DeviceBytes {
		t.Fatalf("device pool used %d != cache accounting %d", dev.Pool().UsedBytes(), st.DeviceBytes)
	}
}

// scanVictim is the reference the victim heaps replaced: visit every entry
// and keep the minimum of the eviction order among those passing ok.
func scanVictim(c *Cache, ok func(*entry) bool) *entry {
	var best *entry
	for _, idx := range c.index {
		for _, e := range idx {
			if ok(e) && (best == nil || less(e, best)) {
				best = e
			}
		}
	}
	return best
}

// victimMismatch compares every heap minimum with scanVictim, deriving
// eligibility from the parent links rather than the cache's child counters.
// Caller holds c.mu or owns c outright.
func victimMismatch(c *Cache) string {
	if got, want := c.hostVictims.min(), scanVictim(c, func(e *entry) bool {
		return e.refs == 0 && e.children == 0
	}); got != want {
		return fmt.Sprintf("host heap min %s, scan %s", entryName(got), entryName(want))
	}
	for t := range c.tiers {
		interior := map[*entry]bool{}
		for _, idx := range c.index {
			for _, e := range idx {
				if e.copyOn(t) != nil && e.parent != nil {
					interior[e.parent] = true
				}
			}
		}
		want := scanVictim(c, func(e *entry) bool {
			return e.copyOn(t) != nil && e.refs == 0 && !interior[e]
		})
		if got := c.tiers[t].victims.min(); got != want {
			return fmt.Sprintf("device %s heap min %s, scan %s", c.tiers[t].name, entryName(got), entryName(want))
		}
	}
	return ""
}

func entryName(e *entry) string {
	if e == nil {
		return "none"
	}
	return fmt.Sprintf("%s/%x@%d", e.model, e.hash, e.depth)
}

// TestVictimHeapsMatchScan is the differential test of the victim heaps: a
// seeded mix of acquires, releases, inserts, the device pressure valve and
// instance crashes, over two models and two device instances with host and
// device budgets small enough to evict on both tiers. The journal clock runs
// under the cache lock at every victim choice, before the victim goes, so it
// checks each heap minimum against the full scan exactly where an eviction
// reads it; every step also runs the CheckConsistency heap audit.
func TestVictimHeapsMatchScan(t *testing.T) {
	insts := []string{"p0", "p1"}
	var c *Cache
	checks := 0
	clock := func() sim.Time {
		checks++
		if msg := victimMismatch(c); msg != "" {
			t.Fatalf("eviction %d: %s", checks, msg)
		}
		return 0
	}
	c = New(Config{Journal: decision.New(decision.Options{}), Clock: clock}, hostFor(24))
	attach := func(inst string) { c.AttachDevice(inst, deviceFor(inst, 5)) }
	for _, inst := range insts {
		attach(inst)
	}

	rng := rand.New(rand.NewSource(7))
	// Conversations share a per-model system prompt and grow by whole
	// blocks, so later turns extend cached chains.
	prompt := func() (string, []workload.PromptSeg, int) {
		mi := rng.Intn(2)
		conv := uint64(rng.Intn(8))
		n := testBlkTok * (1 + rng.Intn(5))
		return "ab"[mi : mi+1], []workload.PromptSeg{seg(uint64(100+mi), testBlkTok), seg(conv, n)}, testBlkTok + n
	}
	var pins []*Hit
	now := sim.Time(0)
	for i := 0; i < 3000; i++ {
		now += sim.Time(rng.Intn(2)) // equal timestamps exercise the model/hash tie-breaks
		inst := insts[rng.Intn(len(insts))]
		switch r := rng.Intn(100); {
		case r < 35:
			m, segs, n := prompt()
			c.Insert(m, testShape, chunks(segs), n, now)
		case r < 60:
			m, segs, n := prompt()
			if h := c.Acquire(inst, m, testShape, chunks(segs), n+1, now); h != nil {
				pins = append(pins, h)
			}
			if len(pins) > 4 {
				pins[0].Release(now)
				pins = pins[1:]
			}
		case r < 82:
			if len(pins) > 0 {
				k := rng.Intn(len(pins))
				pins[k].Release(now)
				pins = append(pins[:k], pins[k+1:]...)
			}
		case r < 97:
			c.EvictDeviceBytes(inst, int64(1+rng.Intn(3))*testBlockBytes)
		default:
			c.DropInstance(inst)
			attach(inst)
		}
		if msg := victimMismatch(c); msg != "" {
			t.Fatalf("step %d: %s", i, msg)
		}
		if bad := c.CheckConsistency(); len(bad) != 0 {
			t.Fatalf("step %d: %v", i, bad)
		}
	}
	for _, h := range pins {
		h.Release(now)
	}
	if bad := c.CheckConsistency(); len(bad) != 0 || c.PinnedEntries() != 0 {
		t.Fatalf("after drain: pinned %d, %v", c.PinnedEntries(), bad)
	}
	st := c.Stats()
	if st.HostEvictions == 0 || st.DeviceEvictions == 0 || st.DeviceDrops == 0 {
		t.Fatalf("stats %+v: a tier never evicted", st)
	}
	if n := st.HostEvictions + st.DeviceEvictions; uint64(checks) != n {
		t.Fatalf("%d victim checks for %d evictions", checks, n)
	}
}

// refOnDevice is the per-tier reference for Match: for one tier at a time,
// a fresh walk down the index counting the device copies contiguous from
// the prompt start.
func refOnDevice(c *Cache, m string, hashes []uint64, tokens int) (matched int, onDevice []int) {
	hashes = prefix(hashes, (tokens-1)/c.block)
	idx := c.index[m]
	for _, h := range hashes {
		if idx[h] == nil {
			break
		}
		matched += c.block
	}
	for t := range c.tiers {
		n := 0
		for _, h := range hashes {
			e := idx[h]
			if e == nil || e.copyOn(t) == nil {
				break
			}
			n += c.block
		}
		onDevice = append(onDevice, n)
	}
	return matched, onDevice
}

// TestPrefixCacheSteadyStateAllocs is the allocation gate on the cache's hot
// path. Once warm, a reuse whose release promotes under device pressure
// allocates only the Hit and its chain; re-inserting a cached prompt,
// inserting a fresh one under host pressure (its evicted entries are
// recycled), and the one-walk routing match allocate nothing.
func TestPrefixCacheSteadyStateAllocs(t *testing.T) {
	const chains, depth = 64, 8
	c := New(Config{}, hostFor((chains+8)*depth))
	insts := []string{"p0", "p1", "p2"}
	for _, inst := range insts {
		c.AttachDevice(inst, deviceFor(inst, 16))
	}
	prompts := make([][]uint64, chains+256)
	for i := range prompts {
		prompts[i] = chunks([]workload.PromptSeg{seg(uint64(i), depth*testBlkTok)})
	}
	now := sim.Time(0)
	for _, p := range prompts[:chains] {
		now++
		c.Insert("m", testShape, p, depth*testBlkTok, now)
	}
	i := 0
	reuse := func() {
		now++
		h := c.Acquire(insts[i%len(insts)], "m", testShape, prompts[i%chains], depth*testBlkTok+1, now)
		if h == nil {
			t.Fatalf("reuse %d missed", i)
		}
		h.Release(now)
		i++
	}
	for range 4 * chains {
		reuse()
	}
	before := c.Stats()
	if a := testing.AllocsPerRun(200, reuse); a > 2 {
		t.Errorf("Acquire+Release under device pressure: %v allocs, want <= 2", a)
	}
	if st := c.Stats(); st.Promotions == before.Promotions || st.DeviceEvictions == before.DeviceEvictions {
		t.Fatalf("no device pressure: %d promotions, %d device evictions", st.Promotions-before.Promotions,
			st.DeviceEvictions-before.DeviceEvictions)
	}

	if a := testing.AllocsPerRun(200, func() {
		now++
		c.Insert("m", testShape, prompts[i%chains], depth*testBlkTok, now)
		i++
	}); a != 0 {
		t.Errorf("re-insert of a cached prompt: %v allocs, want 0", a)
	}

	// Fresh prompts fill the host budget's 8 spare chains, then each
	// evicts a chain's worth of the least recently used entries.
	fresh := chains
	insertFresh := func() {
		now++
		c.Insert("m", testShape, prompts[fresh], depth*testBlkTok, now)
		fresh++
	}
	for range 16 {
		insertFresh()
	}
	evicted := c.Stats().HostEvictions
	if a := testing.AllocsPerRun(100, insertFresh); a != 0 {
		t.Errorf("insert under host pressure: %v allocs, want 0", a)
	}
	if c.Stats().HostEvictions == evicted {
		t.Fatal("fresh inserts evicted nothing")
	}

	var onDevice []int
	if a := testing.AllocsPerRun(200, func() {
		_, onDevice = c.Match("m", prompts[fresh-1-i%chains], depth*testBlkTok+1, onDevice)
		i++
	}); a != 0 {
		t.Errorf("Match: %v allocs, want 0", a)
	}
	if bad := c.CheckConsistency(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestReleasedHitSurvivesRecycling: releasing a hit drops its chain, so once
// host eviction recycles the chain's entries into other prompts' blocks, a
// second Release of the old hit touches none of them.
func TestReleasedHitSurvivesRecycling(t *testing.T) {
	c := New(Config{}, hostFor(4))
	old := chunks([]workload.PromptSeg{seg(1, 64)})
	c.Insert("m", testShape, old, 64, 0)
	h := c.Acquire("p0", "m", testShape, old, 65, 1)
	if h == nil || h.MatchedTokens != 64 {
		t.Fatalf("hit = %+v, want 64 tokens", h)
	}
	oldEntries := slices.Clone(h.chain)
	h.Release(2)
	if h.chain != nil {
		t.Fatal("Release kept the hit's chain")
	}

	// Four one-block prompts evict the old chain leaf first and take over
	// its entries; pin them all.
	var pins []*Hit
	for i := 0; i < 4; i++ {
		p := chunks([]workload.PromptSeg{seg(uint64(100+i), 16)})
		c.Insert("m", testShape, p, 16, sim.Time(3+i))
		hp := c.Acquire("p0", "m", testShape, p, 17, sim.Time(3+i))
		if hp == nil {
			t.Fatalf("prompt %d not cached", i)
		}
		pins = append(pins, hp)
	}
	if m, _ := matchOn(c, "p0", "m", old, 65); m != 0 {
		t.Fatalf("old chain still matches %d tokens", m)
	}
	for _, p := range pins {
		if !slices.Contains(oldEntries, p.chain[0]) {
			t.Fatal("a new prompt's entry was not recycled from the evicted chain")
		}
	}

	h.Release(10)
	if got := c.PinnedEntries(); got != 4 {
		t.Fatalf("second Release of a stale hit unpinned recycled entries: %d pinned, want 4", got)
	}
	if bad := c.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("consistency: %v", bad)
	}
	for _, p := range pins {
		p.Release(11)
	}
	if bad := c.CheckConsistency(); len(bad) != 0 || c.PinnedEntries() != 0 {
		t.Fatalf("after drain: pinned %d, %v", c.PinnedEntries(), bad)
	}
}

// FuzzPrefixCacheOps drives the cache with a byte-coded mix of acquires,
// releases, inserts, the device pressure valve, instance crashes and
// re-attaches over two models and three device tiers. After every op the
// cache must be consistent, every victim heap must agree with a full scan,
// and Match must agree with a per-tier reference walk for every prompt.
func FuzzPrefixCacheOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// Insert, reuse on p2 (promoting), evict there, reuse again, crash p2
	// with copies resident, re-attach it, reuse, and re-attach live p0.
	f.Add([]byte("10A0B0C1A0B0Y0Z0A0B0L0"))
	f.Add([]byte{0x10, 0x31, 0x52, 0x10, 0x31, 0x31, 0x63, 0x84, 0xa5, 0x31, 0x22, 0x10})
	f.Add(bytes.Repeat([]byte{0x41, 0x07, 0x91, 0x33, 0x28, 0xc2, 0x5e}, 12))
	f.Fuzz(func(t *testing.T, ops []byte) {
		insts := []string{"p0", "p1", "p2"}
		devs := make([]*kvcache.Cache, len(insts)) // nil while dropped
		c := New(Config{}, hostFor(12))
		for i, inst := range insts {
			devs[i] = deviceFor(inst, 4)
			c.AttachDevice(inst, devs[i])
		}
		// A prompt is a per-model system block and a conversation stream of
		// one to five blocks; b picks all three.
		prompt := func(b byte) (string, []uint64, int) {
			mi, conv, n := int(b&1), uint64(b>>1&3), testBlkTok*(1+int(b>>3)%5)
			segs := []workload.PromptSeg{seg(uint64(100+mi), testBlkTok), seg(conv, n)}
			return "ab"[mi : mi+1], chunks(segs), testBlkTok + n
		}
		var pins []*Hit
		var onDevice []int
		now := sim.Time(0)
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k], ops[k+1]
			now += sim.Time(op >> 7)
			ti := int(op>>3) % len(insts)
			switch op % 7 {
			case 0, 1:
				m, hashes, n := prompt(arg)
				c.Insert(m, testShape, hashes, n, now)
			case 2:
				m, hashes, n := prompt(arg)
				if h := c.Acquire(insts[ti], m, testShape, hashes, n+1, now); h != nil {
					pins = append(pins, h)
				}
			case 3:
				if len(pins) > 0 {
					j := int(arg) % len(pins)
					pins[j].Release(now)
					pins = append(pins[:j], pins[j+1:]...)
				}
			case 4:
				c.EvictDeviceBytes(insts[ti], int64(1+arg%3)*testBlockBytes)
			case 5:
				c.DropInstance(insts[ti])
				devs[ti] = nil
			case 6:
				if devs[ti] == nil {
					devs[ti] = deviceFor(insts[ti], 4)
				}
				if got := c.AttachDevice(insts[ti], devs[ti]); got != ti {
					t.Fatalf("op %d: re-attach of %s got tier %d, want %d", k/2, insts[ti], got, ti)
				}
			}
			if bad := c.CheckConsistency(); len(bad) != 0 {
				t.Fatalf("op %d: %v", k/2, bad)
			}
			if msg := victimMismatch(c); msg != "" {
				t.Fatalf("op %d: %s", k/2, msg)
			}
			for b := 0; b < 16; b++ {
				m, hashes, n := prompt(byte(b) | 4<<3) // the longest prompt of each conversation
				var matched int
				matched, onDevice = c.Match(m, hashes, n+1, onDevice)
				wantMatched, want := refOnDevice(c, m, hashes, n+1)
				if matched != wantMatched || !slices.Equal(onDevice, want) {
					t.Fatalf("op %d: Match(%s, conv %d) = %d %v, reference %d %v",
						k/2, m, b>>1&3, matched, onDevice, wantMatched, want)
				}
			}
		}
		for _, h := range pins {
			h.Release(now)
		}
		if bad := c.CheckConsistency(); len(bad) != 0 || c.PinnedEntries() != 0 {
			t.Fatalf("after drain: pinned %d, %v", c.PinnedEntries(), bad)
		}
	})
}

// BenchmarkRouteMatch measures routing's prefix lookup for one request: the
// one walk that fills the device-resident depth of six tiers, down an
// 82-block chain (a 1,309-token prompt at 16 tokens per block). Tier t holds
// the first (t+1)/6 of the chain.
func BenchmarkRouteMatch(b *testing.B) {
	const tiers, depth = 6, 82
	c := New(Config{}, kvcache.NewCache("cpu", 16<<20, 1<<14, testBlkTok))
	hashes := chunks([]workload.PromptSeg{seg(1, depth*testBlkTok)})
	c.Insert("m", testShape, hashes, depth*testBlkTok, 0)
	for t := 0; t < tiers; t++ {
		inst := fmt.Sprintf("p%d", t)
		c.AttachDevice(inst, deviceFor(inst, depth))
		blocks := depth * (t + 1) / tiers
		c.Acquire(inst, "m", testShape, hashes, blocks*testBlkTok+1, 1).Release(1)
	}
	tokens := depth*testBlkTok + 1
	var onDevice []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, onDevice = c.Match("m", hashes, tokens, onDevice)
	}
	b.StopTimer()
	if want := depth * testBlkTok; onDevice[tiers-1] != want {
		b.Fatalf("last tier holds %d tokens, want %d", onDevice[tiers-1], want)
	}
}

// BenchmarkPromoteUnderDevicePressure measures one reuse of an 8-block chain
// whose Release promotes every block into a full device tier: 8 promotions,
// each evicting the device leaf of another chain, over 4096 cached entries.
func BenchmarkPromoteUnderDevicePressure(b *testing.B) {
	const chains, depth = 512, 8
	c := New(Config{}, kvcache.NewCache("cpu", 16<<20, 1<<14, testBlkTok))
	c.AttachDevice("p0", deviceFor("gpu0", 64))
	prompts := make([][]uint64, chains)
	for i := range prompts {
		prompts[i] = chunks([]workload.PromptSeg{seg(uint64(i), depth*testBlkTok)})
		c.Insert("m", testShape, prompts[i], depth*testBlkTok, sim.Time(i))
	}
	now := sim.Time(chains)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		h := c.Acquire("p0", "m", testShape, prompts[i%chains], depth*testBlkTok+1, now)
		h.Release(now)
	}
	b.StopTimer()
	if bad := c.CheckConsistency(); len(bad) != 0 {
		b.Fatal(bad)
	}
}

// BenchmarkInsertUnderHostPressure measures inserting a fresh 4-block prompt
// into a host tier held at its 4096-block budget: 4 host evictions per insert.
func BenchmarkInsertUnderHostPressure(b *testing.B) {
	const budget, depth = 4096, 4
	c := New(Config{}, hostFor(budget))
	for i := 0; i < budget/depth; i++ {
		c.Insert("m", testShape, chunks([]workload.PromptSeg{seg(uint64(i), depth*testBlkTok)}), depth*testBlkTok, sim.Time(i))
	}
	now := sim.Time(budget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		c.Insert("m", testShape, chunks([]workload.PromptSeg{seg(uint64(budget+i), depth*testBlkTok)}), depth*testBlkTok, now)
	}
	b.StopTimer()
	if st := c.Stats(); st.HostEvictions != uint64(depth*b.N) {
		b.Fatalf("%d host evictions for %d inserts", st.HostEvictions, b.N)
	}
}
