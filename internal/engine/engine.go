// Package engine simulates an LLM inference engine instance (vLLM in the
// paper) running on one GPU or TP group: its initialization stage pipeline
// (Fig. 7: distributed executor, profiling, weight loading, KV-cache
// pinning, miscellaneous components), the component-reuse optimization of
// §5.1, the explicitly managed VRAM weights buffer and model
// prefetching of §5.2, and prefill/decode step execution timed by the
// analytical models of Appendix A.2.
//
// Engine methods are callback-based: they schedule virtual-time work and
// invoke completions, so instances (package core) can sequence scheduling
// decisions around them.
package engine

import (
	"fmt"
	"sort"
	"time"

	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/gpu"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/latency"
	"aegaeon/internal/memory"
	"aegaeon/internal/metrics"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
)

// Options selects which Aegaeon auto-scaling optimizations are active.
// All-false reproduces the unoptimized T0 baseline of Fig. 7; enabling them
// cumulatively yields T1 (Fig. 8a), T2 (Fig. 8b), and T3 (Fig. 10).
type Options struct {
	// ComponentReuse (§5.1): initialize the distributed executor, profiling
	// results, pinned KV memory, tokenizers, and other engine components
	// once per instance and reuse them across models; model loading uses the
	// optimized stage-buffer path.
	ComponentReuse bool
	// ExplicitMemory (§5.2): self-managed bump-allocated VRAM buffer (no
	// garbage-collection pass on scale-down) and host model cache.
	ExplicitMemory bool
	// Prefetch (§5.2): load the next scheduled model into spare VRAM on a
	// separate stream, making its scale-up a cheap on-device copy.
	Prefetch bool
	// FineGrainedSync (§5.3): overlap KV-cache transfers with engine
	// reinitialization and inference using per-transfer events. Without it,
	// instances must drain transfers synchronously around every switch.
	FineGrainedSync bool
	// Colocate (§8, implemented future work): keep as many models resident
	// in the weights buffer as fit, evicting least-recently-used residents
	// only when a non-resident model needs the space. Switching between
	// resident models costs only an activation, incorporating multiplexing
	// into the SLO-aware scheduler. Implies ExplicitMemory-style instant
	// deallocation via a first-fit region allocator.
	Colocate bool
}

// AllOptimizations returns Aegaeon's full configuration (T3).
func AllOptimizations() Options {
	return Options{ComponentReuse: true, ExplicitMemory: true, Prefetch: true, FineGrainedSync: true}
}

// Unoptimized returns the default preemptive auto-scaling process (T0).
func Unoptimized() Options { return Options{} }

// KVSlabBytes is the slab size of every KV cache, GPU and host alike.
const KVSlabBytes = 64 << 20

// remoteLoadBPS is the bandwidth of the tier below the host model cache
// (bytes/s): production nodes keep provisioned model checkpoints on local
// NVMe (§2.3 — auto-scaling loads weights "from host memory or SSDs"); a
// genuinely remote registry would be slower.
const remoteLoadBPS = 6e9

// Config parameterizes an engine instance.
type Config struct {
	Prof *latency.Profile
	TP   int
	Opts Options

	// VRAM split: the weights region of the self-managed buffer, and the
	// unified GPU KV cache region (Fig. 9).
	WeightsRegionBytes int64
	KVRegionBytes      int64
	BlockTokens        int

	// Node-shared resources.
	ModelCache *memory.ModelCache
	CPUKV      *kvcache.Cache

	// Obs receives device op timelines and switch-cost attribution. Nil
	// disables capture at zero overhead.
	Obs *obs.Collector

	// Fleet receives per-device GPU-second state accounting: engine
	// occupancy edges plus the host-side switch stages (reinit, gc-pause,
	// fetch, activate) that never touch a device engine. Nil disables
	// capture at zero overhead.
	Fleet *fleetobs.Ledger

	// Faults is the shared fault-injection state. Nil (the default) keeps
	// every fetch and transfer path byte-identical to a fault-free build.
	Faults *fault.Faults
}

// Stats aggregates engine activity.
type Stats struct {
	Switches      uint64
	PrefetchHits  uint64
	CacheMisses   uint64
	GCPauses      uint64
	Reinits       uint64
	PrefillJobs   uint64
	DecodeSteps   uint64      // decoding iterations started
	DecodeRuns    uint64      // compute ops they ran as: one per run of back-to-back steps
	SwitchLatency metrics.CDF // exposed scale-up latency per switch (Fig. 15)
	// PrefixReuses counts prefix-cache copies charged instead of
	// recomputed prefill.
	PrefixReuses uint64
}

// Engine is one simulated inference engine.
type Engine struct {
	Name string

	eng *sim.Engine
	dev *gpu.Device
	cfg Config

	compute  *gpu.Stream
	loader   *gpu.Stream // weight H2D (stage-buffer path)
	prefetch *gpu.Stream // §5.2 prefetch stream

	weights *memory.BumpArena
	region  *memory.RegionAlloc // weights allocator under Colocate
	kv      *kvcache.Manager

	booted  bool
	models  *model.Registry // ids of the models the engine serves
	current *model.Model
	curID   model.ID             // current's id
	curCost *latency.CostModel   // CostFor(curID), set wherever current is
	costs   []*latency.CostModel // indexed by model id, built on first use
	table   []latency.CostModel  // uncarved cost models CostFor builds into

	prefetched model.ID  // model.NoID when none
	prefetchEv gpu.Event // the latest prefetch's event: fired once it has landed

	// Colocation state: resident models and their region offsets.
	residents map[model.ID]*resident

	switching bool
	sw        switchState // the switch in flight
	advanceFn func()      // e.advance, bound on the first switch
	stats     Stats

	// throttle is the thermal-throttle slowdown on compute kernels (spot
	// marketplace capability degradation); 0 or 1 means nominal speed.
	throttle float64
}

// loadChunk is the chunk of every weight load and prefetch: the stage buffer
// streams weights in chunks (§5.2, "multi-threaded, chunked, and
// pipelined"), so a concurrent KV-cache transfer waits on the PCIe link for
// at most one chunk, not behind a monolithic multi-GB copy. The transfer is
// one gpu.Stream.SubmitChunked op, which yields the engine at a chunk
// boundary only when another op is waiting for it.
const loadChunk = 25 * time.Millisecond

// New constructs an engine on a fresh device. Its model-specific methods
// take ids from models, the registry of the system it serves in; nil gives
// the engine a registry of its own.
func New(se *sim.Engine, name string, cfg Config, models *model.Registry) *Engine {
	if models == nil {
		models = model.NewRegistry()
	}
	if cfg.TP < 1 {
		cfg.TP = 1
	}
	if cfg.BlockTokens <= 0 {
		cfg.BlockTokens = 16
	}
	dev := gpu.NewDevice(se, name)
	e := &Engine{
		Name:     name,
		eng:      se,
		dev:      dev,
		cfg:      cfg,
		compute:  dev.NewStream("default"),
		loader:   dev.NewStream("loader"),
		prefetch: dev.NewStream("prefetch"),
		weights:  memory.NewBumpArena(cfg.WeightsRegionBytes),
		models:   models,
	}
	if cfg.Opts.Colocate {
		e.region = memory.NewRegionAlloc(cfg.WeightsRegionBytes)
		e.residents = map[model.ID]*resident{}
	}
	gpuKV := kvcache.NewCache(name+"/kv", cfg.KVRegionBytes, KVSlabBytes, cfg.BlockTokens)
	e.kv = kvcache.NewManager(dev, cfg.Prof, gpuKV, cfg.CPUKV)
	e.kv.SetFaults(cfg.Faults, name, cfg.Obs)
	cfg.Obs.ObserveDevice(dev)
	cfg.Fleet.ObserveDevice(dev)
	e.kv.SetFleet(cfg.Fleet, name) // after ObserveDevice registers the device
	return e
}

// resident tracks one colocated model's placement in the weights region.
type resident struct {
	id       model.ID
	m        *model.Model
	off      int64
	size     int64
	lastUsed sim.Time
	loading  gpu.Event // the load's event: fired (or zero) once fully loaded
}

// loaded reports whether the resident's weights are fully in place.
func (r *resident) loaded() bool { return r.loading.Query() }

// model returns the registered model of id, panicking on an unknown id.
func (e *Engine) model(id model.ID) *model.Model {
	m := e.models.Model(id)
	if m == nil {
		panic(fmt.Sprintf("engine %s: unknown model id %d", e.Name, id))
	}
	return m
}

// IsResident reports whether model id's weights are (or are becoming)
// resident.
func (e *Engine) IsResident(id model.ID) bool {
	if e.residents == nil {
		return e.current != nil && e.curID == id
	}
	return e.residents[id] != nil
}

// Residents returns the number of models currently resident (1 at most
// without Colocate).
func (e *Engine) Residents() int {
	if e.residents == nil {
		if e.current != nil {
			return 1
		}
		return 0
	}
	return len(e.residents)
}

// admit places m's shard in the colocation region as a resident.
func (e *Engine) admit(id model.ID, m *model.Model, shard int64) (*resident, error) {
	off, err := e.region.Alloc(shard)
	if err != nil {
		return nil, err
	}
	r := &resident{id: id, m: m, off: off, size: shard, lastUsed: e.eng.Now()}
	e.residents[id] = r
	return r, nil
}

// activationDelay is the cost of switching between two already-resident
// models under colocation: rebinding the execution context, no data motion.
const activationDelay = time.Millisecond

// makeRoomColocate frees least-recently-used residents until size bytes
// fit. The target model keep, the current model, and residents with
// in-flight loads are never evicted. If eviction leaves enough total but
// fragmented space, the survivors are compacted; the returned duration is
// the on-device copy cost to charge (zero when no compaction was needed).
func (e *Engine) makeRoomColocate(size int64, keep model.ID) (time.Duration, error) {
	for e.region.LargestFree() < size {
		var victim *resident
		for _, r := range e.residents {
			if r.id == keep || r.id == e.curID || !r.loaded() {
				continue
			}
			if victim == nil || r.lastUsed < victim.lastUsed ||
				(r.lastUsed == victim.lastUsed && r.m.Name < victim.m.Name) {
				victim = r
			}
		}
		if victim == nil {
			break // nothing more to evict; try compaction
		}
		if err := e.region.Free(victim.off); err != nil {
			return 0, err
		}
		delete(e.residents, victim.id)
	}
	if e.region.LargestFree() >= size {
		return 0, nil
	}
	if e.region.FreeBytes() < size {
		return 0, fmt.Errorf("colocate: cannot fit %d bytes for %s: %d free after eviction",
			size, e.model(keep).Name, e.region.FreeBytes())
	}
	// Compact: survivors with in-flight loads cannot move.
	var moved int64
	for _, r := range e.residents {
		if !r.loaded() {
			return 0, fmt.Errorf("colocate: cannot compact around in-flight load of %s", r.m.Name)
		}
		moved += r.size
	}
	// Rebuild placements contiguously from offset zero.
	survivors := make([]*resident, 0, len(e.residents))
	for _, r := range e.residents {
		survivors = append(survivors, r)
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].off < survivors[j].off })
	for _, r := range survivors {
		if err := e.region.Free(r.off); err != nil {
			return 0, err
		}
	}
	for _, r := range survivors {
		off, err := e.region.Alloc(r.size)
		if err != nil {
			return 0, err
		}
		r.off = off
	}
	return e.CostFor(keep).OnDeviceCopy(moved), nil
}

// WarmBoot marks the engine's persistent components (distributed executor,
// profiling results, pinned KV memory, tokenizers) as already initialized —
// the state of a long-running production instance. §5.1: Aegaeon performs
// relevant profiling and caches tokenizers beforehand.
func (e *Engine) WarmBoot() { e.booted = true }

// KV returns the engine's KV transfer manager.
func (e *Engine) KV() *kvcache.Manager { return e.kv }

// Device returns the underlying simulated device.
func (e *Engine) Device() *gpu.Device { return e.dev }

// Sim returns the simulation engine.
func (e *Engine) Sim() *sim.Engine { return e.eng }

// Options returns the active optimization set.
func (e *Engine) Options() Options { return e.cfg.Opts }

// Current returns the currently loaded model (nil if none).
func (e *Engine) Current() *model.Model { return e.current }

// CurrentID returns the id of the currently loaded model (model.NoID if
// none).
func (e *Engine) CurrentID() model.ID { return e.curID }

// Models returns the registry the engine's model ids come from.
func (e *Engine) Models() *model.Registry { return e.models }

// Stats returns a pointer to the engine's counters (live view).
func (e *Engine) Stats() *Stats { return &e.stats }

// CostFor returns the (cached) cost model for model id on this engine's
// hardware.
func (e *Engine) CostFor(id model.ID) *latency.CostModel {
	if int(id) < len(e.costs) && e.costs[id] != nil {
		return e.costs[id]
	}
	m := e.model(id)
	e.costs = model.Grow(e.costs, model.ID(e.models.Len()))
	if len(e.table) == 0 {
		// One table for every registered model not yet built. Cost models
		// are carved from it, never appended, so the pointers handed out
		// stay put when a later registration starts another table.
		n := 0
		for _, c := range e.costs[1:] {
			if c == nil {
				n++
			}
		}
		e.table = make([]latency.CostModel, n)
	}
	c := &e.table[0]
	e.table = e.table[1:]
	c.Init(e.cfg.Prof, m, e.cfg.TP)
	e.costs[id] = c
	return c
}

// SwitchCost returns the Eq. 4-based cost of scaling up model id on this engine,
// regardless of what is currently resident. Algorithm 2's quota formula
// uses it as the per-model auto-scaling overhead c.
func (e *Engine) SwitchCost(id model.ID) time.Duration {
	cost := e.CostFor(id)
	if !e.cfg.Opts.ComponentReuse {
		d := cost.NaiveInit()
		if !e.cfg.Opts.ExplicitMemory {
			d += e.cfg.Prof.GCPause
		}
		return d
	}
	d := cost.Switch()
	if !e.cfg.Opts.ExplicitMemory {
		d += e.cfg.Prof.GCPause
	}
	return d
}

// EffectiveSwitchCost returns the auto-scaling overhead a decode round
// should budget for scaling up model id (Algorithm 2's per-model term in c): with
// prefetching available, consecutive turns hide the PCIe load and the
// exposed cost collapses to the on-device compaction copy; otherwise the
// full Eq. 4 load (plus reinit/GC per the options) is paid.
func (e *Engine) EffectiveSwitchCost(id model.ID) time.Duration {
	if e.cfg.Opts.Colocate && e.IsResident(id) {
		return activationDelay
	}
	m := e.model(id)
	if e.cfg.Opts.Prefetch && e.weights.Capacity() >= 2*m.ShardWeightBytes(e.cfg.TP) {
		return e.CostFor(id).OnDeviceCopy(m.ShardWeightBytes(e.cfg.TP)) + 5*time.Millisecond
	}
	return e.SwitchCost(id)
}

// SwitchTo performs preemptive scale-up to model id and fires done when
// inference for the model may begin. Concurrent switches on one engine are a
// programming error. Every switch climbs one ladder of stages, each run only
// when the options and the engine's state call for it:
//
//  1. gc-pause: scale the current model down (§5.2). Explicit memory resets
//     the bump arena at once; the tensor-library path pays a garbage
//     collection pass.
//  2. reinit: reinitialize the engine components unless they are reused
//     (§5.1, Fig. 7).
//  3. compact: copy a prefetched model into place on the device (§5.2 step
//     3.b), or move surviving residents together.
//  4. fetch: pull weights the host model cache lacks from the tier below.
//  5. weight-load: stream the weights through the stage buffer (H2D).
//  6. activate: rebind the execution context to a resident model.
//
// Colocation (§8) is a placement variant of the same ladder: the weights go
// to a region slot among the residents instead of the bump arena, nothing
// is scaled down, and a resident model needs only the activate stage.
//
// The switch's state lives in e.sw, and every stage that waits on virtual
// time completes through advance, bound once, so a switch allocates nothing.
func (e *Engine) SwitchTo(id model.ID, done func()) {
	if e.switching {
		panic(fmt.Sprintf("engine %s: concurrent SwitchTo", e.Name))
	}
	m := e.model(id)
	if e.curID == id {
		done()
		return
	}
	e.switching = true
	start := e.eng.Now()
	e.stats.Switches++
	from := ""
	if e.current != nil {
		from = e.current.Name
	}
	e.cfg.Obs.BeginSwitch(e.Name, from, m.Name, start, e.booted && e.cfg.Opts.ComponentReuse)
	if e.advanceFn == nil {
		e.advanceFn = e.advance
	}
	e.sw = switchState{id: id, m: m, start: start, done: done}
	s := &e.sw
	if r := e.residents[id]; r != nil {
		// Resident, possibly still streaming in: activate once loaded.
		e.stats.PrefetchHits++
		s.next = stageActivate
		r.loading.OnComplete(e.advanceFn)
		return
	}
	s.shard = m.ShardWeightBytes(e.cfg.TP)
	e.place(s)
	s.next = stageReinit
	if s.r == nil && e.current != nil && !e.cfg.Opts.ExplicitMemory {
		s.next = stageGCPause
	}
	e.advance()
}

// stage is a rung of the switch ladder.
type stage uint8

const (
	stageGCPause stage = iota
	stageReinit
	stageClimb   // pick the compaction or load the placement calls for
	stageCompact // the prefetched model's compaction, or the residents'
	stageLoad    // fetch if the host model cache misses, then weight-load
	stageAwaitFetch
	stageFetch
	stageWeightLoad
	stageActivate
	stageFinish
)

// switchState is the switch in flight: what it loads and where (place
// fills the placement), the ladder's next stage, and the stage in flight,
// which advance closes when it ends.
type switchState struct {
	id    model.ID
	m     *model.Model
	shard int64
	start sim.Time
	done  func()

	r       *resident     // colocation slot; nil in the bump arena
	copyDur time.Duration // compaction the surviving residents need
	hit     bool          // m was prefetched: compact ready into place
	ready   gpu.Event     // that prefetch's event

	next       stage
	open       openStage      // the stage in flight, which advance closes
	host       fleetobs.State // a host stage's fleet state
	stageStart sim.Time
	attempt    int // the fetch attempt awaitFetchable is on
}

// openStage is the kind of switch stage in flight, for advance to close
// when it ends.
type openStage uint8

const (
	openNone openStage = iota
	openHost
	openCompact
	openWeightLoad
)

// advance climbs the switch ladder from e.sw.next until a stage waits on
// virtual time, first closing the stage whose end called it. It is the one
// completion every stage waits with.
func (e *Engine) advance() {
	s := &e.sw
	now := e.eng.Now()
	if st := s.open; st != openNone {
		s.open = openNone
		switch st {
		case openCompact:
			e.cfg.Obs.SwitchStage(e.Name, "compact", s.stageStart, now)
		case openWeightLoad:
			if s.r != nil {
				s.r.loading = gpu.Event{}
			}
			e.cfg.Obs.SwitchStage(e.Name, "weight-load", s.stageStart, now)
		case openHost:
			e.cfg.Fleet.Exit(e.Name, s.host)
			e.cfg.Obs.SwitchStage(e.Name, s.host.String(), s.stageStart, now)
			switch s.host {
			case fleetobs.Reinit:
				e.booted = true
			case fleetobs.Fetch:
				// A full cache is tolerable: the fetched weights stream
				// through the stage buffer regardless; only future hits are
				// lost.
				_ = e.cfg.ModelCache.Insert(s.m.Name, s.m.WeightBytes())
			}
		}
	}
	for {
		switch s.next {
		case stageGCPause:
			e.stats.GCPauses++
			s.next = stageReinit
			e.hostStage(fleetobs.GCPause, e.cfg.Prof.GCPause)
			return
		case stageReinit:
			s.next = stageClimb
			if !e.booted || !e.cfg.Opts.ComponentReuse {
				e.stats.Reinits++
				p := e.cfg.Prof
				e.hostStage(fleetobs.Reinit, p.DistExecInit+p.ProfileOpt+p.KVInit+p.MiscInit)
				return
			}
		case stageClimb:
			switch {
			case s.hit: // the compacted prefetch needs no load
				e.stats.PrefetchHits++
				s.next = stageCompact
				s.ready.OnComplete(e.advanceFn)
				return
			case s.copyDur > 0:
				s.next = stageCompact
			default:
				s.next = stageLoad
			}
		case stageCompact:
			kind, d := gpu.OpCompactResidents, s.copyDur
			s.next = stageLoad
			if s.hit {
				kind, d = gpu.OpCompact, e.CostFor(s.id).OnDeviceCopy(s.shard)
				s.next = stageFinish
			}
			s.open, s.stageStart = openCompact, now
			e.compute.SubmitOp(gpu.Compute, d, gpu.OpInfo{Kind: kind, Model: s.id}, e.advanceFn)
			return
		case stageLoad:
			// A weight that misses the host model cache waits out any
			// registry fetch failure; the bump arena then fetches it as a
			// stage of its own, while a resident folds the fetch into its
			// H2D copy.
			s.next = stageWeightLoad
			if e.cfg.ModelCache != nil && !e.cfg.ModelCache.Contains(s.m.Name) {
				if s.r == nil {
					e.stats.CacheMisses++
				}
				s.next, s.attempt = stageAwaitFetch, 0
			}
		case stageAwaitFetch:
			if e.awaitFetchable() {
				return
			}
			s.next = stageWeightLoad
			if s.r == nil {
				s.next = stageFetch
			}
		case stageFetch:
			s.next = stageWeightLoad
			e.hostStage(fleetobs.Fetch, e.fetchTime(s.m))
			return
		case stageWeightLoad:
			s.next = stageFinish
			e.weightLoad(now)
			return
		case stageActivate:
			s.next = stageFinish
			e.hostStage(fleetobs.Activate, activationDelay)
			return
		case stageFinish:
			e.finishSwitch(now)
			return
		}
	}
}

// finishSwitch makes the switch's model current, records its latency and
// fires its done callback.
func (e *Engine) finishSwitch(now sim.Time) {
	s := &e.sw
	id, done := s.id, s.done
	e.switching = false
	e.current, e.curID, e.curCost = s.m, id, e.CostFor(id)
	if r := e.residents[id]; r != nil {
		r.lastUsed = now
	}
	e.stats.SwitchLatency.AddDuration(now - s.start)
	e.cfg.Obs.EndSwitch(e.Name, now)
	e.sw = switchState{}
	done()
}

// place makes room for the switch's shard and claims it. Colocation evicts
// LRU residents until the shard fits, sets the compaction the surviving
// residents then need, and admits the model as resident s.r. The bump
// arena drops the old model and any prefetch of another one; when the model
// itself was prefetched, s.hit is set and s.ready is that prefetch, whose
// copy is compacted into place instead of loaded.
func (e *Engine) place(s *switchState) {
	if e.residents != nil {
		var err error
		if s.copyDur, err = e.makeRoomColocate(s.shard, s.id); err != nil {
			panic(fmt.Sprintf("engine %s: %v", e.Name, err))
		}
		if s.r, err = e.admit(s.id, s.m, s.shard); err != nil {
			panic(fmt.Sprintf("engine %s: colocate alloc after eviction: %v", e.Name, err))
		}
		return
	}
	if e.prefetched == s.id {
		s.hit, s.ready = true, e.prefetchEv
	}
	e.prefetched = model.NoID
	if e.current != nil {
		// O(1) bump reset: a prefetched copy of m survives logically, and
		// the compact stage models moving it to the start of the buffer.
		e.weights.Reset()
	}
	if _, err := e.weights.Alloc(s.shard, 256); err != nil {
		panic(fmt.Sprintf("engine %s: weights region too small for %s: %v", e.Name, s.m.Name, err))
	}
}

// hostStage starts one switch stage that occupies no device engine (reinit,
// gc-pause, fetch, activate), charged to the fleet ledger and the switch
// record for d when advance closes it.
func (e *Engine) hostStage(st fleetobs.State, d time.Duration) {
	s := &e.sw
	s.open, s.host, s.stageStart = openHost, st, e.eng.Now()
	e.cfg.Fleet.Enter(e.Name, st, s.id)
	e.eng.After(d, e.advanceFn)
}

// weightLoad streams the switch's weights to the device on the loader
// stream as the weight-load stage. The optimized multi-threaded, chunked,
// pipelined stage-buffer copy (§5.2) achieves the Eq. 4 β-derated PCIe
// bandwidth; without component reuse the bump arena takes the naive engine
// loading path (Fig. 7: 2.83 GB/s).
func (e *Engine) weightLoad(now sim.Time) {
	s := &e.sw
	var dur time.Duration
	switch {
	case s.r != nil:
		dur = e.foldedLoadTime(s.id, s.m)
	case e.cfg.Opts.ComponentReuse:
		dur = e.CostFor(s.id).Switch()
	default:
		dur = e.CostFor(s.id).NaiveLoad()
	}
	s.open, s.stageStart = openWeightLoad, now
	e.loader.SubmitChunked(gpu.H2D, dur, loadChunk, gpu.OpInfo{Kind: gpu.OpLoad, Model: s.id}, e.advanceFn)
	if s.r != nil {
		s.r.loading = e.loader.Record()
	}
}

// foldedLoadTime is the H2D time of m's weights through the stage buffer
// with any registry fetch folded in: a host model cache miss is counted,
// the weights are cached, and the fetch time is added.
func (e *Engine) foldedLoadTime(id model.ID, m *model.Model) time.Duration {
	d := e.CostFor(id).Switch()
	if e.cfg.ModelCache != nil && !e.cfg.ModelCache.Contains(m.Name) {
		e.stats.CacheMisses++
		_ = e.cfg.ModelCache.Insert(m.Name, m.WeightBytes())
		d += e.fetchTime(m)
	}
	return d
}

// fetchTime is how long m's weights take to arrive from the tier below the
// host model cache, under any injected fetch slowdown.
func (e *Engine) fetchTime(m *model.Model) time.Duration {
	return time.Duration(float64(m.WeightBytes()) / remoteLoadBPS * float64(time.Second) * e.cfg.Faults.FetchFactor())
}

// awaitFetchable holds the switch while remote fetches of its model are
// failing, and reports whether it did: when no fault window is active (in
// particular with nil fault state) the switch goes on at once. Each failed
// attempt retries with jittered exponential backoff; when the bounded
// attempt budget is exhausted the counter is recorded and the budget
// re-arms after one more backoff — a switch must eventually make progress,
// never wedge the instance.
func (e *Engine) awaitFetchable() bool {
	s, f := &e.sw, e.cfg.Faults
	if !f.FetchFailing(s.m.Name) {
		return false
	}
	f.CountFetchFailure()
	e.cfg.Obs.Fault(e.Name, "fetchfail", s.m.Name, e.eng.Now())
	next := s.attempt + 1
	if next >= f.MaxAttempts() {
		f.CountFetchExhausted()
		next = 0
	}
	delay := f.RetryDelay(s.attempt)
	f.CountFetchRetry()
	e.cfg.Obs.Retry(e.Name, "fetch "+s.m.Name, e.eng.Now())
	s.attempt = next
	e.eng.After(delay, e.advanceFn)
	return true
}

// StartPrefetch begins loading model id into spare weights-region VRAM on the
// prefetch stream (§5.2), if the options allow, space suffices, and no
// prefetch is already pending. Under colocation the model becomes a resident,
// but only in space free as is: a prefetch never displaces a hotter model.
// Returns true if a prefetch was started or the model is already prefetched
// or resident.
func (e *Engine) StartPrefetch(id model.ID) bool {
	m := e.model(id)
	if !e.cfg.Opts.Prefetch || e.switching {
		return false
	}
	switch {
	case e.residents != nil:
		if e.residents[id] != nil {
			return true
		}
	case e.curID == id:
		return false
	case e.prefetched != model.NoID:
		return e.prefetched == id
	case !e.prefetchEv.Query():
		return false // a dropped prefetch is still streaming
	}
	if e.cfg.ModelCache != nil && !e.cfg.ModelCache.Contains(m.Name) && e.cfg.Faults.FetchFailing(m.Name) {
		return false // prefetch is opportunistic: skip while the registry is down
	}
	shard := m.ShardWeightBytes(e.cfg.TP)
	info := gpu.OpInfo{Kind: gpu.OpPrefetch, Model: id}
	if e.residents != nil {
		if e.region.LargestFree() < shard {
			return false
		}
		r, err := e.admit(id, m, shard)
		if err != nil {
			return false
		}
		e.prefetch.SubmitChunked(gpu.H2D, e.foldedLoadTime(id, m), loadChunk, info, nil)
		r.loading = e.prefetch.Record()
		return true
	}
	if e.weights.Free() < shard {
		return false // e.g. A10: no room for a second model (§7.4)
	}
	if _, err := e.weights.Alloc(shard, 256); err != nil {
		return false
	}
	e.prefetch.SubmitChunked(gpu.H2D, e.foldedLoadTime(id, m), loadChunk, info, nil)
	e.prefetched, e.prefetchEv = id, e.prefetch.Record()
	return true
}

// Prefill executes one prefill job (batch size 1, §4.2) for the current
// model and fires done on completion.
func (e *Engine) Prefill(promptTokens int, done func()) {
	e.PrefillFor("", promptTokens, done)
}

// PrefillFor is Prefill with request attribution: the compute op carries the
// request id so the device timeline links kernels to requests.
func (e *Engine) PrefillFor(reqID string, promptTokens int, done func()) {
	if e.current == nil {
		panic("engine: Prefill with no model loaded")
	}
	e.stats.PrefillJobs++
	dur := e.throttled(e.curCost.Prefill(promptTokens))
	e.compute.SubmitOp(gpu.Compute, dur,
		gpu.OpInfo{Kind: gpu.OpPrefill, Model: e.curID, Request: reqID}, done)
}

// ReusePrefix charges the tier-dependent cost of materializing a cached
// prefix into a fresh sequence instead of recomputing it: hostBytes travel
// over PCIe (host tier → VRAM, on the loader stream so it overlaps compute),
// deviceBytes are an on-device copy from the instance's resident prefix
// blocks. done fires when the KV is in place and the (shortened) prefill may
// start.
func (e *Engine) ReusePrefix(reqID string, hostBytes, deviceBytes int64, done func()) {
	if e.current == nil {
		panic("engine: ReusePrefix with no model loaded")
	}
	e.stats.PrefixReuses++
	dur := e.cfg.Prof.PCIeCopy(hostBytes) + e.curCost.OnDeviceCopy(deviceBytes)
	e.loader.SubmitOp(gpu.H2D, dur,
		gpu.OpInfo{Kind: gpu.OpPrefixReuse, Model: e.curID, Request: reqID}, done)
}

// DecodeStep executes one decoding iteration over a batch with the given
// total context tokens and fires done on completion: a run of one step,
// queued behind any compute work in flight.
func (e *Engine) DecodeStep(contextTokens int64, done func()) {
	dur := e.StepTime(contextTokens)
	e.stats.DecodeSteps++
	e.stats.DecodeRuns++
	e.compute.SubmitOp(gpu.Compute, dur,
		gpu.OpInfo{Kind: gpu.OpDecode, Model: e.curID}, done)
}

// StepTime returns the compute time of one decoding iteration of the current
// model over the given total context tokens, under the live throttle.
func (e *Engine) StepTime(contextTokens int64) time.Duration {
	if e.current == nil {
		panic("engine: decode with no model loaded")
	}
	return e.throttled(e.curCost.DecodeStep(contextTokens))
}

// DecodeRun executes the decoding iterations r plans, whose ends are sums of
// StepTimes from now, back to back as one compute op, and fires done when
// the last one ends. The compute engine must be idle (ComputeIdle). Each
// iteration but the last ends when SettleStep settles it; the next starts
// there. CutRun, a throttle change or other compute work ends the run early,
// at the end of the iteration in flight.
func (e *Engine) DecodeRun(r *gpu.Run, done func()) {
	if e.current == nil {
		panic("engine: decode with no model loaded")
	}
	e.stats.DecodeSteps++
	e.stats.DecodeRuns++
	e.compute.SubmitRun(gpu.Compute, r, gpu.OpInfo{Kind: gpu.OpDecode, Model: e.curID}, done)
}

// SettleStep ends the iteration in flight of the run in flight, delivering
// its op record, and starts the next, which ends at next.
func (e *Engine) SettleStep(next sim.Time) {
	e.compute.SettleStep(next)
	e.stats.DecodeSteps++
}

// CutRun ends the run in flight, if any, at the end of its iteration in
// flight.
func (e *Engine) CutRun() { e.compute.CutRun() }

// ComputeIdle reports whether the compute stream and engine have no work
// queued or running, so a run submitted now starts now.
func (e *Engine) ComputeIdle() bool {
	return e.compute.PendingOps() == 0 && !e.dev.Busy(gpu.Compute)
}

// SetThrottle sets the thermal-throttle slowdown applied to compute kernels
// (factor > 1 = slower; <= 1 restores nominal speed). Estimates are left
// unthrottled on purpose: schedulers plan against nominal capability, the
// market's capability score is what steers work away from hot devices. A
// decode run in flight is cut at the end of its iteration in flight, so the
// iterations after it take the new speed.
func (e *Engine) SetThrottle(factor float64) {
	if factor < 1 {
		factor = 0
	}
	e.throttle = factor
	e.CutRun()
}

// throttled scales a compute duration by the live throttle factor.
func (e *Engine) throttled(d time.Duration) time.Duration {
	if e.throttle > 1 {
		return time.Duration(float64(d) * e.throttle)
	}
	return d
}

// DecodeStepEstimate returns the t_k of Eq. 2 for a batch of the model with
// the given context size.
func (e *Engine) DecodeStepEstimate(id model.ID, contextTokens int64) time.Duration {
	return e.CostFor(id).DecodeStep(contextTokens)
}

// PrefillEstimate returns the Eq. 5 estimate used for queue loads.
func (e *Engine) PrefillEstimate(id model.ID, promptTokens int) time.Duration {
	return e.CostFor(id).Prefill(promptTokens)
}
