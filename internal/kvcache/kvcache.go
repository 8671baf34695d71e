// Package kvcache implements the unified KV caches of §5.2 and the
// fine-grained KV-cache transfer synchronization of §5.3.
//
// A Cache is one tier (GPU VRAM or node DRAM) of slab-allocated, fixed-size
// KV blocks, with one shape class per distinct per-token KV geometry
// (Table 1). A Manager owns one GPU tier plus a reference to the shared CPU
// tier and performs swap-out/swap-in of request Sequences over dedicated
// KV-out / KV-in streams, enforcing the three data-dependency rules of §5.3:
//
//	❶ inference requires the sequence's KV to be resident on the GPU,
//	❷ a new transfer must wait for the sequence's previous transfer,
//	❸ freed CPU blocks stay in a move list until in-flight transfers
//	  touching them complete (reclaimed by a daemon that polls events).
package kvcache

import (
	"fmt"
	"slices"
	"time"

	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/gpu"
	"aegaeon/internal/latency"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
)

// Cache is one tier of unified KV storage.
//
// It also keeps a LIFO stack of emptied block lists. Every sequence list
// allocated in the tier is popped from the stack (or grown from nil when it
// is empty) and pushed back once all its blocks are released, so swapping a
// batch out and in reuses the same lists instead of growing new ones. The
// stack is uncapped: it never holds more lists than the tier once had live.
type Cache struct {
	name        string
	pool        *memory.SlabPool
	blockTokens int
	shapes      map[model.KVShape]memory.ClassID // registered shape -> class
	spare       [][]memory.Block                 // emptied block lists

	// Fleet ledger hook of a GPU tier (nil = no accounting): the tier's
	// usage is sampled after pool mutations (a decode step's appends once,
	// through Manager.NoteKV) so the ledger tracks the GPU KV watermark.
	fleet    *fleetobs.Ledger
	fleetDev fleetobs.DeviceRef
}

// NewCache builds a tier over capacity bytes with the given slab size and
// tokens-per-block granularity.
func NewCache(name string, capacity, slabSize int64, blockTokens int) *Cache {
	if blockTokens <= 0 {
		panic("kvcache: blockTokens must be positive")
	}
	return &Cache{
		name:        name,
		pool:        memory.NewSlabPool(capacity, slabSize),
		blockTokens: blockTokens,
		shapes:      map[model.KVShape]memory.ClassID{},
	}
}

// RegisterShape declares the shape class for a model's KV geometry and
// returns its id in this tier's pool. Models with identical shapes share a
// class. It runs on every swap-in and new sequence, so a shape registered
// once is answered from a per-shape memo without formatting its label
// again. An id is valid only in the tier that returned it.
func (c *Cache) RegisterShape(s model.KVShape) (memory.ClassID, error) {
	if id, ok := c.shapes[s]; ok {
		return id, nil
	}
	id, err := c.pool.Register(s.String(), s.BytesPerToken()*int64(c.blockTokens))
	if err != nil {
		return -1, err
	}
	c.shapes[s] = id
	return id, nil
}

// BlocksFor returns the number of blocks needed to hold tokens.
func (c *Cache) BlocksFor(tokens int) int {
	return (tokens + c.blockTokens - 1) / c.blockTokens
}

// BlockBytes returns the per-block byte size of a class (0 for an id the
// tier never issued).
func (c *Cache) BlockBytes(class memory.ClassID) int64 {
	bb, _ := c.pool.BlockBytes(class)
	return bb
}

// MaxTokens returns how many tokens of the class the tier could hold if
// entirely dedicated to it.
func (c *Cache) MaxTokens(class memory.ClassID) int64 {
	bb := c.BlockBytes(class)
	if bb == 0 {
		return 0
	}
	perSlab := c.pool.SlabSize() / bb
	slabs := c.pool.Capacity() / c.pool.SlabSize()
	return slabs * perSlab * int64(c.blockTokens)
}

// Pool exposes the underlying slab pool (for fragmentation statistics).
func (c *Cache) Pool() *memory.SlabPool { return c.pool }

// BlockTokens returns the tokens-per-block granularity of the tier. Layers
// that share blocks with this tier (the prefix cache) must use the same
// granularity or their shape classes would clash.
func (c *Cache) BlockTokens() int { return c.blockTokens }

// retire pushes a block list whose blocks have all been released back on
// the spare stack. The caller must hold no other reference to it.
func (c *Cache) retire(l []memory.Block) {
	if cap(l) > 0 {
		c.spare = append(c.spare, l[:0])
	}
}

// free returns every block of l to the pool and retires l.
func (c *Cache) free(l []memory.Block) error {
	for _, b := range l {
		if err := c.pool.Free(b); err != nil {
			return err
		}
	}
	c.retire(l)
	return nil
}

// noteKV pushes the tier's current usage sample to its fleet ledger.
func (c *Cache) noteKV() {
	if c.fleet != nil {
		c.fleet.NoteKV(c.fleetDev, c.pool.UsedBytes(), c.pool.Capacity())
	}
}

// release is free for completion callbacks, where a failure is a bug.
func (c *Cache) release(l []memory.Block, what string) {
	if err := c.free(l); err != nil {
		panic(fmt.Sprintf("kvcache: %s: %v", what, err))
	}
}

// allocList fills a list popped off the spare stack (nil when it is empty)
// with blocks for tokens of the class. On failure the list goes straight
// back on the stack.
func (c *Cache) allocList(class memory.ClassID, tokens int) ([]memory.Block, error) {
	var l []memory.Block
	if n := len(c.spare); n > 0 {
		l, c.spare[n-1] = c.spare[n-1], nil
		c.spare = c.spare[:n-1]
	}
	l, err := c.alloc(l, class, tokens)
	if err != nil {
		c.retire(l)
		return nil, err
	}
	return l, nil
}

// alloc appends blocks for tokens of the class to dst and returns the
// extended slice, so a growing sequence extends its block list in place.
// Capacity is pre-checked in O(1) so an oversized request fails fast instead
// of allocating hundreds of blocks and rolling them back — swap-in retry
// storms under memory pressure would otherwise turn quadratic. On failure
// dst's own blocks are untouched: only the tail this call appended is freed.
func (c *Cache) alloc(dst []memory.Block, class memory.ClassID, tokens int) ([]memory.Block, error) {
	n := c.BlocksFor(tokens)
	if avail, err := c.pool.FreeBlocksAvailable(class); err != nil {
		return dst, fmt.Errorf("kvcache %s: %w", c.name, err)
	} else if avail < n {
		return dst, fmt.Errorf("kvcache %s: need %d blocks of %s, %d available: %w",
			c.name, n, c.pool.Label(class), avail, memory.ErrOutOfMemory)
	}
	base := len(dst)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		b, err := c.pool.Alloc(class)
		if err != nil {
			for _, rb := range dst[base:] {
				if ferr := c.pool.Free(rb); ferr != nil {
					panic(fmt.Sprintf("kvcache: rollback free failed: %v", ferr))
				}
			}
			return dst[:base], fmt.Errorf("kvcache %s: %w", c.name, err)
		}
		dst = append(dst, b)
	}
	return dst, nil
}

// State is the residency state of a sequence's KV cache.
type State int

const (
	// StateGPU: resident in VRAM; inference may run (rule ❶ satisfied).
	StateGPU State = iota
	// StateSwappingOut: D2H transfer in flight.
	StateSwappingOut
	// StateCPU: resident in host memory.
	StateCPU
	// StateSwappingIn: H2D transfer in flight.
	StateSwappingIn
	// StateFreed: released.
	StateFreed
)

func (s State) String() string {
	switch s {
	case StateGPU:
		return "gpu"
	case StateSwappingOut:
		return "swapping-out"
	case StateCPU:
		return "cpu"
	case StateSwappingIn:
		return "swapping-in"
	case StateFreed:
		return "freed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Sequence is the KV cache of one request. Its block lists hold 12-byte,
// pointer-free blocks and come from their tier's spare stack. Class ids are
// per tier, so the sequence keeps its shape's id in its current GPU tier
// (re-resolved when it swaps in elsewhere) and in the shared CPU tier.
type Sequence struct {
	ID    string
	Shape model.KVShape

	tokens    int
	state     State
	gpuBlocks []memory.Block
	cpuBlocks []memory.Block
	gpuCache  *Cache         // tier currently/last holding the GPU copy
	gpuClass  memory.ClassID // Shape's class in gpuCache
	cpuCache  *Cache
	cpuClass  memory.ClassID // Shape's class in cpuCache
	lastXfer  gpu.Event      // most recent transfer touching this sequence (rule ❷)

	xferWait time.Duration // cumulative exposed data-plane wait (Fig. 14/15)
}

// Tokens returns the number of tokens cached.
func (s *Sequence) Tokens() int { return s.tokens }

// State returns the residency state.
func (s *Sequence) State() State { return s.state }

// Bytes returns the total KV bytes of the sequence.
func (s *Sequence) Bytes() int64 {
	return s.Shape.BytesPerToken() * int64(s.tokens)
}

// LastTransfer returns the event of the sequence's most recent transfer
// (the zero Event, which reads as fired, if none). Shareable across
// instances via IPC handles.
func (s *Sequence) LastTransfer() gpu.Event { return s.lastXfer }

// TransferWait returns the cumulative exposed wait attributed to this
// sequence's KV transfers.
func (s *Sequence) TransferWait() time.Duration { return s.xferWait }

// AddTransferWait accrues exposed data-plane wait time (called by the
// instance when a batch stalls on rule ❶).
func (s *Sequence) AddTransferWait(d time.Duration) { s.xferWait += d }

// SurvivesHostOnly reports whether the sequence can be resumed using only
// host memory — i.e. a complete copy resides in the CPU tier. Used by
// crash recovery: VRAM contents die with an instance; the unified CPU KV
// cache does not.
func (s *Sequence) SurvivesHostOnly() bool { return s.state == StateCPU }

// Abandon releases the sequence's bookkeeping after its owning instance
// crashed: CPU-tier blocks are returned (any in-flight reads of them died
// with the instance; there is no payload to corrupt in the simulation), and
// GPU-tier blocks are dropped without pool updates — the device's memory is
// gone with the instance. The sequence ends in StateFreed.
func (s *Sequence) Abandon() {
	for _, b := range s.cpuBlocks {
		// Best effort: blocks may already be parked in move lists.
		_ = s.cpuCache.pool.Free(b)
	}
	s.cpuBlocks = nil
	s.gpuBlocks = nil
	s.state = StateFreed
}

// Manager performs KV transfers for one GPU instance.
type Manager struct {
	eng  *sim.Engine
	prof *latency.Profile

	GPUCache *Cache
	CPUCache *Cache

	kvIn, kvOut *gpu.Stream

	// Recycled completion records: transfers whose copy has landed and move
	// lists whose transfer completed, reused LIFO.
	xfers []*xfer
	moves []*moveList

	stats     Stats
	ctrlDelay time.Duration // per control operation (index/event bookkeeping)

	// Fault-injection state (nil/zero = fault-free behavior, byte-identical
	// to a build without the fault package).
	faults   *fault.Faults
	instance string
	obsc     *obs.Collector
}

// Stats counts data-plane activity for Fig. 14's control/data overhead
// breakdown and Fig. 15's CDFs.
type Stats struct {
	SwapOuts    uint64
	SwapIns     uint64
	BytesOut    int64
	BytesIn     int64
	ControlOps  uint64
	ControlTime time.Duration
	// AbortReclaims counts sequences released via Reclaim — KV returned
	// because its request was shed or aborted rather than completed.
	AbortReclaims uint64
}

// NewManager builds a transfer manager for dev, using the shared CPU cache.
func NewManager(dev *gpu.Device, prof *latency.Profile, gpuCache, cpuCache *Cache) *Manager {
	m := &Manager{
		eng:       dev.Sim(),
		prof:      prof,
		GPUCache:  gpuCache,
		CPUCache:  cpuCache,
		kvIn:      dev.NewStream("kv-in"),
		kvOut:     dev.NewStream("kv-out"),
		ctrlDelay: 20 * time.Microsecond,
	}
	return m
}

// SetFaults attaches fault-injection state: f supplies transfer fault
// windows and retry policy, instance is the targeting name for this
// manager's GPU, and c receives fault/retry events. Nil arguments are fine.
func (m *Manager) SetFaults(f *fault.Faults, instance string, c *obs.Collector) {
	m.faults = f
	m.instance = instance
	m.obsc = c
}

// SetFleet attaches the fleet ledger (nil disables) under the given device
// name, which must already be registered with it; the manager samples its
// GPU pool into the ledger after mutations so pool-memory watermarks show
// up in fleet snapshots.
func (m *Manager) SetFleet(l *fleetobs.Ledger, device string) {
	m.GPUCache.fleet = l
	m.GPUCache.fleetDev = l.Ref(device)
	m.NoteKV()
}

// NoteKV pushes the current GPU pool usage sample to the fleet ledger.
func (m *Manager) NoteKV() { m.GPUCache.noteKV() }

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats { return m.stats }

func (m *Manager) control(n int) {
	m.stats.ControlOps += uint64(n)
	m.stats.ControlTime += time.Duration(n) * m.ctrlDelay
}

// NewSequence allocates GPU KV for a fresh request (at prefill admission).
func (m *Manager) NewSequence(id string, shape model.KVShape, tokens int) (*Sequence, error) {
	gpuClass, err := m.GPUCache.RegisterShape(shape)
	if err != nil {
		return nil, err
	}
	cpuClass, err := m.CPUCache.RegisterShape(shape)
	if err != nil {
		return nil, err
	}
	blocks, err := m.GPUCache.allocList(gpuClass, tokens)
	if err != nil {
		return nil, err
	}
	m.control(1)
	m.NoteKV()
	return &Sequence{
		ID:        id,
		Shape:     shape,
		tokens:    tokens,
		state:     StateGPU,
		gpuBlocks: blocks,
		gpuCache:  m.GPUCache,
		gpuClass:  gpuClass,
		cpuCache:  m.CPUCache,
		cpuClass:  cpuClass,
	}, nil
}

// AppendTokens extends a GPU-resident sequence by n tokens, allocating
// blocks as needed. Fails with memory.ErrOutOfMemory when the GPU tier is
// full (the caller preempts in response). It does not sample the pool into
// the fleet ledger: a decode step appends to every sequence of its batch
// and then calls NoteKV once, which records the same final usage and peak
// because appends only allocate.
func (m *Manager) AppendTokens(seq *Sequence, n int) error {
	if seq.state != StateGPU {
		return fmt.Errorf("kvcache: append to sequence %s in state %s", seq.ID, seq.state)
	}
	cache := seq.gpuCache
	need := cache.BlocksFor(seq.tokens+n) - len(seq.gpuBlocks)
	if need > 0 {
		blocks, err := cache.alloc(seq.gpuBlocks, seq.gpuClass, need*cache.blockTokens)
		if err != nil {
			return err
		}
		seq.gpuBlocks = blocks
	}
	seq.tokens += n
	return nil
}

// FreeBlocks returns how many more blocks of seq's shape class its GPU tier
// could allocate now: what appends to seq and its same-shape peers may take.
func (m *Manager) FreeBlocks(seq *Sequence) int {
	n, _ := seq.gpuCache.pool.FreeBlocksAvailable(seq.gpuClass)
	return n
}

// SwapOut starts offloading the sequence to the CPU tier (scale-down path).
// The transfer waits for the sequence's previous transfer (rule ❷). GPU
// blocks are released when the copy completes. Returns the transfer event.
func (m *Manager) SwapOut(seq *Sequence) (gpu.Event, error) {
	if seq.state != StateGPU {
		return gpu.Event{}, fmt.Errorf("kvcache: swap-out of sequence %s in state %s", seq.ID, seq.state)
	}
	cpuBlocks, err := m.CPUCache.allocList(seq.cpuClass, seq.tokens)
	if err != nil {
		return gpu.Event{}, err
	}
	seq.cpuBlocks = cpuBlocks
	seq.state = StateSwappingOut
	if !seq.lastXfer.Query() {
		m.kvOut.WaitEvent(seq.lastXfer) // rule ❷
		m.control(1)
	}
	x := m.newXfer(seq, false, seq.gpuBlocks)
	x.src = seq.gpuCache
	seq.gpuBlocks = nil
	m.submit(x)
	seq.lastXfer = x.ev
	m.stats.SwapOuts++
	m.stats.BytesOut += x.bytes
	m.control(2) // event record + block index updates
	return seq.lastXfer, nil
}

// xfer is one KV transfer of a sequence, a swap-out or a swap-in, from its
// first attempt until one lands. It is recycled through its manager's free
// list, and its completions are methods bound once when it is allocated, so
// a transfer and its retries allocate nothing once the list is warm.
type xfer struct {
	m      *Manager
	seq    *Sequence
	in     bool           // swap-in; false for a swap-out
	src    *Cache         // swap-out: the GPU tier its source blocks return to
	blocks []memory.Block // source blocks: GPU for a swap-out, CPU for a swap-in
	bytes  int64
	n      int       // attempt number, 0 for the first
	ev     gpu.Event // the latest attempt's event

	land, fail, retry func() // x.landed, x.failed and x.resubmit
}

// newXfer returns a transfer of seq's bytes that reads blocks: out of the
// GPU tier, or into it when in is set. It comes off the free list when the
// list has one.
func (m *Manager) newXfer(seq *Sequence, in bool, blocks []memory.Block) *xfer {
	var x *xfer
	if n := len(m.xfers); n > 0 {
		x = m.xfers[n-1]
		m.xfers[n-1] = nil
		m.xfers = m.xfers[:n-1]
	} else {
		x = &xfer{m: m}
		x.land, x.fail, x.retry = x.landed, x.failed, x.resubmit
	}
	x.seq, x.in, x.blocks, x.bytes = seq, in, blocks, seq.Bytes()
	return x
}

// op returns the stream, engine and label of the transfer's copies: "kv-out
// <request>" on the D2H engine, or "kv-in <request>" on the H2D engine.
func (x *xfer) op() (*gpu.Stream, gpu.EngineKind, gpu.OpInfo) {
	if x.in {
		return x.m.kvIn, gpu.H2D, gpu.OpInfo{Kind: gpu.OpKVIn, Request: x.seq.ID}
	}
	return x.m.kvOut, gpu.D2H, gpu.OpInfo{Kind: gpu.OpKVOut, Request: x.seq.ID}
}

// submit submits the transfer's next attempt on its stream and records its
// event in x.ev. An attempt submitted inside a transfer-fault window
// occupies the stream for the full copy and then fails (failed). The one
// that lands completes through landed; a swap-in's also parks its CPU
// source blocks on the move list (rule ❸), so they are released exactly
// once however many attempts it takes.
func (m *Manager) submit(x *xfer) {
	s, k, info := x.op()
	failing := m.faults.TransferFailing(m.instance)
	done := x.land
	if failing {
		done = x.fail
	}
	s.SubmitOp(k, m.prof.PCIeCopy(x.bytes), info, done)
	x.ev = s.Record()
	if !x.in || failing {
		return
	}
	// Rule ❸: the CPU copies become garbage once read, but they must not be
	// reallocated until the read completes. Park them in the move list.
	if err := m.park(x.blocks, x.ev); err != nil {
		panic(fmt.Sprintf("kvcache: cpu free-blocked: %v", err))
	}
	m.NoteKV()
}

// landed completes the attempt that lands. A swap-out releases the source
// GPU blocks, the copy having read them; a swap-in's sequence becomes
// GPU-resident. The transfer then goes back on the free list.
func (x *xfer) landed() {
	m, seq := x.m, x.seq
	if x.in {
		// Guard against a crash-recovery Abandon racing the transfer.
		if seq.state == StateSwappingIn {
			seq.state = StateGPU
		}
	} else {
		x.src.release(x.blocks, "gpu free after swap-out")
		// A swap-in may already have been issued against this sequence
		// (Fig. 10's overlapped handoff); do not clobber its state.
		if seq.state == StateSwappingOut {
			seq.state = StateCPU
		}
		m.NoteKV()
	}
	*x = xfer{m: m, land: x.land, fail: x.fail, retry: x.retry}
	m.xfers = append(m.xfers, x)
}

// failed completes an attempt made inside a fault window: it counts and
// traces the failure and the retry, then resubmits after jittered backoff.
// Windows are finite, so some attempt lands.
func (x *xfer) failed() {
	m := x.m
	_, _, info := x.op()
	what := info.Label("") // "kv-out <request>"
	m.faults.CountTransferFailure()
	m.obsc.Fault(m.instance, "xfer", what, m.eng.Now())
	m.faults.CountTransferRetry()
	m.obsc.Retry(m.instance, what, m.eng.Now())
	m.eng.After(m.faults.RetryDelay(x.n), x.retry)
}

// resubmit submits the transfer's next attempt. seq.lastXfer follows the
// live attempt unless a newer transfer (an overlapped swap-in) superseded
// it.
func (x *xfer) resubmit() {
	prev := x.ev
	x.n++
	x.m.submit(x)
	if x.seq.lastXfer == prev {
		x.seq.lastXfer = x.ev
	}
}

// SwapIn starts loading the sequence back into this manager's GPU tier
// (scale-up path). It may be called while the swap-out (possibly issued by a
// different instance) is still in flight: the KV-in stream waits on the
// sequence's last transfer event (rule ❷, cross-instance via IPC events).
// The CPU source blocks are logically freed immediately but parked in the
// move list until the daemon observes the transfer complete (rule ❸).
func (m *Manager) SwapIn(seq *Sequence) (gpu.Event, error) {
	if seq.state != StateCPU && seq.state != StateSwappingOut {
		return gpu.Event{}, fmt.Errorf("kvcache: swap-in of sequence %s in state %s", seq.ID, seq.state)
	}
	gpuClass, err := m.GPUCache.RegisterShape(seq.Shape)
	if err != nil {
		return gpu.Event{}, err
	}
	gpuBlocks, err := m.GPUCache.allocList(gpuClass, seq.tokens)
	if err != nil {
		return gpu.Event{}, err
	}
	if !seq.lastXfer.Query() {
		m.kvIn.WaitEvent(seq.lastXfer) // rule ❷
		m.control(1)
	}
	seq.state = StateSwappingIn
	x := m.newXfer(seq, true, seq.cpuBlocks)
	seq.cpuBlocks = nil
	m.submit(x)
	seq.gpuBlocks = gpuBlocks
	seq.gpuCache, seq.gpuClass = m.GPUCache, gpuClass
	seq.lastXfer = x.ev
	m.stats.SwapIns++
	m.stats.BytesIn += x.bytes
	m.control(2)
	return seq.lastXfer, nil
}

// Reclaim releases the blocks of a sequence whose request was shed or
// aborted before finishing. It is Free plus accounting: the AbortReclaims
// counter lets audits distinguish overload reclamation from normal
// completion frees.
func (m *Manager) Reclaim(seq *Sequence) error {
	m.stats.AbortReclaims++
	return m.Free(seq)
}

// Free releases the sequence's blocks (request completed or aborted). A
// sequence with an in-flight transfer parks its blocks in move lists.
func (m *Manager) Free(seq *Sequence) error {
	switch seq.state {
	case StateGPU:
		if err := seq.gpuCache.free(seq.gpuBlocks); err != nil {
			return err
		}
	case StateCPU:
		if err := m.CPUCache.free(seq.cpuBlocks); err != nil {
			return err
		}
	case StateSwappingOut:
		// GPU blocks are released by the swap-out completion; CPU target
		// blocks must survive until the write completes.
		if err := m.park(seq.cpuBlocks, seq.lastXfer); err != nil {
			return err
		}
	case StateSwappingIn:
		// GPU target blocks must survive until the write completes; reuse
		// the move-list mechanism on the GPU pool via OnComplete.
		blocks := seq.gpuBlocks
		cache := seq.gpuCache
		seq.lastXfer.OnComplete(func() {
			cache.release(blocks, "deferred gpu free")
			cache.noteKV()
		})
	case StateFreed:
		return fmt.Errorf("kvcache: double free of sequence %s", seq.ID)
	}
	seq.gpuBlocks, seq.cpuBlocks = nil, nil
	seq.state = StateFreed
	m.control(1)
	m.NoteKV()
	return nil
}

// moveList is a list of CPU blocks parked on the move list until the
// transfer that reads or writes them completes (§5.3). It is recycled
// through its manager's free list; unblock, bound once, is its completion.
type moveList struct {
	m       *Manager
	blocks  []memory.Block
	unblock func() // l.release
}

// park puts CPU blocks that are logically free, but still read or written
// by the transfer ev, on the move list (§5.3): they stay blocked, so no
// allocation can reuse them, until ev completes (step ⑧). Then they become
// allocatable again and the emptied list retires to its tier.
func (m *Manager) park(blocks []memory.Block, ev gpu.Event) error {
	if len(blocks) == 0 {
		return nil
	}
	for _, b := range blocks {
		if err := m.CPUCache.pool.FreeBlocked(b); err != nil {
			return err
		}
	}
	var l *moveList
	if n := len(m.moves); n > 0 {
		l = m.moves[n-1]
		m.moves[n-1] = nil
		m.moves = m.moves[:n-1]
	} else {
		l = &moveList{m: m}
		l.unblock = l.release
	}
	l.blocks = blocks
	ev.OnComplete(l.unblock)
	return nil
}

// release unblocks the list's blocks, retires the list to the CPU tier and
// returns the record to the free list.
func (l *moveList) release() {
	cache := l.m.CPUCache
	for _, b := range l.blocks {
		if err := cache.pool.Unblock(b); err != nil {
			panic(fmt.Sprintf("kvcache: move list unblock: %v", err))
		}
	}
	cache.retire(l.blocks)
	l.blocks = nil
	l.m.moves = append(l.m.moves, l)
}
