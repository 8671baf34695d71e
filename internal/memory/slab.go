package memory

import (
	"fmt"
	"slices"
	"strings"
)

// ClassID names a shape class registered with a SlabPool: the dense index
// Register hands out, valid only in the pool that issued it.
type ClassID int32

// Block identifies one KV-cache block inside a SlabPool. It is 12 bytes and
// holds no pointers, so a sequence's block list is memory the garbage
// collector never scans.
type Block struct {
	Class ClassID // shape class
	Slab  int32   // slab id within the pool
	Index int32   // block index within the slab
}

// SlabPool implements the unified KV cache allocation of §5.2: a memory
// region is divided into fixed-size slabs; each slab is dynamically assigned
// to one block shape and serves as a pool of fixed-size blocks of that
// shape. Freeing the last block of a slab returns the slab to the shared
// free list, so shapes borrow capacity from each other over time.
//
// Classes are named by label only at registration; every allocation path
// takes the ClassID Register returned and finds the class by slice index.
type SlabPool struct {
	slabSize  int64
	freeSlabs []int32
	classes   []*slabClass       // by ClassID
	byLabel   map[string]ClassID // registration only
	slabs     []slab             // by slab id
	states    []blockState       // uncarved tail of the block-state arena

	usedBytes     int64 // bytes in live blocks across all classes
	peakAllocated int64 // high-water mark of slab bytes held by classes
}

type slabClass struct {
	label         string
	blockBytes    int64
	blocksPerSlab int
	slabs         int   // slabs held
	used          int   // blocks in use
	peakAllocated int64 // high-water of slab bytes held by this class

	// freeBlocks is a LIFO list of exactly the blockFree blocks of the
	// class's slabs: reclaim purges a returned slab's entries, and a blocked
	// block is listed again only by Unblock. Alloc panics on an entry that
	// breaks this, and FreeBlocksAvailable counts on it.
	freeBlocks []Block
}

// slab is one slab's bookkeeping. state is sized to the owner's
// blocksPerSlab when the slab is acquired and is all blockFree whenever the
// slab is back on the free list, so reacquiring it allocates nothing unless
// the new owner packs more blocks per slab. A slab that needs more entries
// than it holds carves them from the pool's arena (carveStates).
type slab struct {
	owner   *slabClass // nil while the slab is free
	inUse   int        // blocks in blockLive
	blocked int        // blocks in blockBlocked
	state   []blockState
}

type blockState uint8

const (
	blockFree    blockState = iota
	blockLive               // allocated
	blockBlocked            // freed but unavailable until Unblock (move lists)
)

// is reports whether block index i of the slab is in state st.
func (s *slab) is(i int32, st blockState) bool {
	return i >= 0 && int(i) < len(s.state) && s.state[i] == st
}

// slabOf returns b's slab if class c holds it, or nil.
func (p *SlabPool) slabOf(c *slabClass, b Block) *slab {
	if b.Slab < 0 || int(b.Slab) >= len(p.slabs) || p.slabs[b.Slab].owner != c {
		return nil
	}
	return &p.slabs[b.Slab]
}

// class returns the class registered under id.
func (p *SlabPool) class(id ClassID) (*slabClass, error) {
	if id < 0 || int(id) >= len(p.classes) {
		return nil, fmt.Errorf("memory: unregistered class id %d", id)
	}
	return p.classes[id], nil
}

// NewSlabPool divides capacity bytes into slabs of slabSize bytes each.
func NewSlabPool(capacity, slabSize int64) *SlabPool {
	if slabSize <= 0 || capacity < slabSize {
		panic(fmt.Sprintf("memory: bad slab pool geometry capacity=%d slabSize=%d", capacity, slabSize))
	}
	n := int(capacity / slabSize)
	p := &SlabPool{
		slabSize: slabSize,
		byLabel:  map[string]ClassID{},
		slabs:    make([]slab, n),
	}
	// Keep the free list sorted so allocation order is deterministic.
	p.freeSlabs = make([]int32, n)
	for i := range p.freeSlabs {
		p.freeSlabs[i] = int32(n - 1 - i) // pop from the end -> ascending slab ids
	}
	return p
}

// Register declares a shape class with the given per-block byte size and
// returns its id. Registering a label again returns the same id; registering
// it with a different size is an error.
func (p *SlabPool) Register(label string, blockBytes int64) (ClassID, error) {
	if blockBytes <= 0 {
		return -1, fmt.Errorf("memory: non-positive block size %d for class %q", blockBytes, label)
	}
	if blockBytes > p.slabSize {
		return -1, fmt.Errorf("memory: block size %d exceeds slab size %d for class %q",
			blockBytes, p.slabSize, label)
	}
	if id, ok := p.byLabel[label]; ok {
		if c := p.classes[id]; c.blockBytes != blockBytes {
			return -1, fmt.Errorf("memory: class %q re-registered with size %d != %d",
				label, blockBytes, c.blockBytes)
		}
		return id, nil
	}
	id := ClassID(len(p.classes))
	p.classes = append(p.classes, &slabClass{
		label:         label,
		blockBytes:    blockBytes,
		blocksPerSlab: int(p.slabSize / blockBytes),
	})
	p.byLabel[label] = id
	return id, nil
}

// Label returns the label a class was registered under ("" for an unknown
// id).
func (p *SlabPool) Label(id ClassID) string {
	c, err := p.class(id)
	if err != nil {
		return ""
	}
	return c.label
}

// Alloc returns a free block of the given class, acquiring a new slab for
// the class if necessary. It fails with ErrOutOfMemory when the class has no
// free blocks and no free slabs remain.
func (p *SlabPool) Alloc(id ClassID) (Block, error) {
	c, err := p.class(id)
	if err != nil {
		return Block{}, err
	}
	if n := len(c.freeBlocks); n > 0 {
		b := c.freeBlocks[n-1]
		c.freeBlocks = c.freeBlocks[:n-1]
		s := p.slabOf(c, b)
		if s == nil || !s.is(b.Index, blockFree) {
			panic(fmt.Sprintf("memory: class %q free list holds %+v, which is not a free block of the class", c.label, b))
		}
		s.inUse++
		s.state[b.Index] = blockLive
		c.used++
		p.usedBytes += c.blockBytes
		return b, nil
	}
	// Acquire a fresh slab.
	if len(p.freeSlabs) == 0 {
		return Block{}, fmt.Errorf("%w: no free slabs for class %q", ErrOutOfMemory, c.label)
	}
	sid := p.freeSlabs[len(p.freeSlabs)-1]
	p.freeSlabs = p.freeSlabs[:len(p.freeSlabs)-1]
	s := &p.slabs[sid]
	s.owner = c
	if n := c.blocksPerSlab; cap(s.state) >= n {
		s.state = s.state[:n]
	} else {
		s.state = p.carveStates(n)
	}
	c.slabs++
	if alloc := c.allocatedBytes(p.slabSize); alloc > c.peakAllocated {
		c.peakAllocated = alloc
	}
	if total := p.allocatedBytes(); total > p.peakAllocated {
		p.peakAllocated = total
	}
	// Push all blocks except index 0 (which we hand out) onto the free list,
	// in reverse so they pop in ascending order. The list is empty here, so
	// one Grow sizes it for the slab instead of append doubling it.
	c.freeBlocks = slices.Grow(c.freeBlocks, c.blocksPerSlab-1)
	for i := c.blocksPerSlab - 1; i >= 1; i-- {
		c.freeBlocks = append(c.freeBlocks, Block{Class: id, Slab: sid, Index: int32(i)})
	}
	s.inUse++
	s.state[0] = blockLive
	c.used++
	p.usedBytes += c.blockBytes
	return Block{Class: id, Slab: sid, Index: 0}, nil
}

// Free returns a block to its class. If its slab becomes empty (and has no
// blocked indices), the slab is reclaimed into the shared pool.
func (p *SlabPool) Free(b Block) error {
	c, err := p.class(b.Class)
	if err != nil {
		return fmt.Errorf("memory: free of block with unknown class id %d", b.Class)
	}
	s := p.slabOf(c, b)
	if s == nil {
		return fmt.Errorf("memory: free of block in unowned slab %d (class %q)", b.Slab, c.label)
	}
	if !s.is(b.Index, blockLive) {
		return fmt.Errorf("memory: double free of block %v", b)
	}
	s.state[b.Index] = blockFree
	s.inUse--
	c.used--
	p.usedBytes -= c.blockBytes
	if s.inUse == 0 && s.blocked == 0 {
		p.reclaim(c, b.Slab)
		return nil
	}
	c.freeBlocks = append(c.freeBlocks, b)
	return nil
}

// FreeBlocked marks a freed block as unavailable for reuse because an
// asynchronous transfer may still be reading or writing it (§5.3 rule ❸,
// move lists). Unblock must be called once the transfer completes.
func (p *SlabPool) FreeBlocked(b Block) error {
	c, err := p.class(b.Class)
	if err != nil {
		return fmt.Errorf("memory: free of block with unknown class id %d", b.Class)
	}
	s := p.slabOf(c, b)
	if s == nil {
		return fmt.Errorf("memory: free of block in unowned slab %d (class %q)", b.Slab, c.label)
	}
	if !s.is(b.Index, blockLive) {
		return fmt.Errorf("memory: double free of block %v", b)
	}
	s.state[b.Index] = blockBlocked
	s.inUse--
	s.blocked++
	c.used--
	p.usedBytes -= c.blockBytes
	return nil
}

// Unblock makes a previously FreeBlocked block allocatable again — the
// daemon thread's reclamation step (§5.3 step ⑧).
func (p *SlabPool) Unblock(b Block) error {
	c, err := p.class(b.Class)
	if err != nil {
		return fmt.Errorf("memory: unblock of block with unknown class id %d", b.Class)
	}
	s := p.slabOf(c, b)
	if s == nil {
		return fmt.Errorf("memory: unblock of block in unowned slab %d", b.Slab)
	}
	if !s.is(b.Index, blockBlocked) {
		return fmt.Errorf("memory: unblock of non-blocked block %v", b)
	}
	s.state[b.Index] = blockFree
	s.blocked--
	if s.inUse == 0 && s.blocked == 0 {
		p.reclaim(c, b.Slab)
		return nil
	}
	c.freeBlocks = append(c.freeBlocks, b)
	return nil
}

// stateChunk is the smallest chunk of block-state entries the arena starts.
const stateChunk = 4 << 10

// carveStates returns n blockFree entries cut from the pool's arena, starting
// a chunk of max(n, stateChunk) entries when the current one is short, so a
// pool's first touch of its slabs costs a few chunks rather than one slice
// per slab. The full slice expression caps the carve at n: a slab that later
// needs more entries carves anew instead of growing into its neighbour's.
func (p *SlabPool) carveStates(n int) []blockState {
	if len(p.states) < n {
		p.states = make([]blockState, max(n, stateChunk))
	}
	s := p.states[:n:n]
	p.states = p.states[n:]
	return s
}

// reclaim returns an empty slab (every block free) to the shared pool.
func (p *SlabPool) reclaim(c *slabClass, id int32) {
	p.slabs[id].owner = nil
	c.slabs--
	p.freeSlabs = append(p.freeSlabs, id)
	// Purge stale free-list entries for the reclaimed slab: if the class
	// later reacquires the same slab id, leftover entries would alias the
	// fresh slab's blocks.
	kept := c.freeBlocks[:0]
	for _, b := range c.freeBlocks {
		if b.Slab != id {
			kept = append(kept, b)
		}
	}
	c.freeBlocks = kept
}

func (c *slabClass) allocatedBytes(slabSize int64) int64 {
	return int64(c.slabs) * slabSize
}

func (p *SlabPool) allocatedBytes() int64 {
	return int64(len(p.slabs)-len(p.freeSlabs)) * p.slabSize
}

// ClassStats summarizes one shape class for the fragmentation analysis of
// Fig. 16.
type ClassStats struct {
	Label          string
	UsedBytes      int64
	AllocatedBytes int64 // slab bytes currently held by the class
	// Fragmentation is unused-held memory over peak allocated memory
	// (Fig. 16's definition: "ratio of unused memory to peak allocated
	// memory"). Zero when the class never held memory.
	Fragmentation float64
}

// Stats returns per-class statistics sorted by label, plus a pool-wide
// aggregate under the label "All".
func (p *SlabPool) Stats() []ClassStats {
	classes := slices.Clone(p.classes)
	slices.SortFunc(classes, func(a, b *slabClass) int { return strings.Compare(a.label, b.label) })
	out := make([]ClassStats, 0, len(classes)+1)
	var totUsed int64
	for _, c := range classes {
		alloc := c.allocatedBytes(p.slabSize)
		used := int64(c.used) * c.blockBytes
		totUsed += used
		st := ClassStats{
			Label:          c.label,
			UsedBytes:      used,
			AllocatedBytes: alloc,
		}
		if c.peakAllocated > 0 {
			st.Fragmentation = float64(alloc-used) / float64(c.peakAllocated)
		}
		out = append(out, st)
	}
	all := ClassStats{
		Label:          "All",
		UsedBytes:      totUsed,
		AllocatedBytes: p.allocatedBytes(),
	}
	if p.peakAllocated > 0 {
		all.Fragmentation = float64(all.AllocatedBytes-all.UsedBytes) / float64(p.peakAllocated)
	}
	return append(out, all)
}

// BlockedBlocks returns how many blocks are freed but still blocked: parked
// on a move list behind a transfer that has not completed. Once every
// transfer has completed it must be zero, or a block was never unblocked.
func (p *SlabPool) BlockedBlocks() int {
	n := 0
	for i := range p.slabs {
		n += p.slabs[i].blocked
	}
	return n
}

// SlabSize returns the configured slab size in bytes.
func (p *SlabPool) SlabSize() int64 { return p.slabSize }

// Capacity returns total pool bytes.
func (p *SlabPool) Capacity() int64 { return int64(len(p.slabs)) * p.slabSize }

// UsedBytes returns bytes held in live blocks across all classes. O(1): the
// pool keeps a running total.
func (p *SlabPool) UsedBytes() int64 { return p.usedBytes }

// BlockBytes returns the per-block byte size of the class.
func (p *SlabPool) BlockBytes(id ClassID) (int64, error) {
	c, err := p.class(id)
	if err != nil {
		return 0, err
	}
	return c.blockBytes, nil
}

// FreeBlocksAvailable returns how many more blocks of the class could be
// allocated right now (free blocks on its slabs plus blocks in free slabs).
// O(1): the class free list holds exactly its free blocks (see freeBlocks).
func (p *SlabPool) FreeBlocksAvailable(id ClassID) (int, error) {
	c, err := p.class(id)
	if err != nil {
		return 0, err
	}
	return len(c.freeBlocks) + len(p.freeSlabs)*c.blocksPerSlab, nil
}
