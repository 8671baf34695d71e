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
	// Prefix-cache reuse activity (PR 6): copies charged instead of
	// recomputed prefill.
	PrefixReuses      uint64
	PrefixHostBytes   int64
	PrefixDeviceBytes int64
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

	prefetched      *model.Model
	prefetchReady   *gpu.Event
	prefetchPending bool

	// Colocation state: resident models and their region offsets.
	residents map[string]*resident

	switching bool
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
		e.residents = map[string]*resident{}
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
	m        *model.Model
	off      int64
	size     int64
	lastUsed sim.Time
	loading  *gpu.Event // nil once fully loaded
}

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
	_, ok := e.residents[e.model(id).Name]
	return ok
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

// activationDelay is the cost of switching between two already-resident
// models under colocation: rebinding the execution context, no data motion.
const activationDelay = time.Millisecond

// switchColocated performs SwitchTo under the colocation policy.
func (e *Engine) switchColocated(id model.ID, m *model.Model, start sim.Time, done func()) {
	finish := func() {
		e.switching = false
		e.current, e.curID, e.curCost = m, id, e.CostFor(id)
		if r := e.residents[m.Name]; r != nil {
			r.lastUsed = e.eng.Now()
		}
		e.stats.SwitchLatency.AddDuration(e.eng.Now() - start)
		e.cfg.Obs.EndSwitch(e.Name, e.eng.Now())
		done()
	}
	if r, ok := e.residents[m.Name]; ok {
		// Resident (possibly still streaming in): activate once loaded.
		run := func() {
			as := e.eng.Now()
			e.cfg.Fleet.Enter(e.Name, fleetobs.Activate, id)
			e.eng.After(activationDelay, func() {
				e.cfg.Fleet.Exit(e.Name, fleetobs.Activate)
				e.cfg.Obs.SwitchStage(e.Name, "activate", as, e.eng.Now())
				finish()
			})
		}
		if r.loading != nil && !r.loading.Query() {
			e.stats.PrefetchHits++
			r.loading.OnComplete(run)
			return
		}
		e.stats.PrefetchHits++
		run()
		return
	}
	// Not resident: evict LRU residents until the shard fits (compacting
	// survivors with a cheap on-device copy when eviction alone leaves the
	// free space fragmented, as §5.2 does for prefetched models), then
	// stream it in.
	shard := m.ShardWeightBytes(e.cfg.TP)
	compactDur, err := e.makeRoomColocate(shard, id, m)
	if err != nil {
		panic(fmt.Sprintf("engine %s: %v", e.Name, err))
	}
	off, err := e.region.Alloc(shard)
	if err != nil {
		panic(fmt.Sprintf("engine %s: colocate alloc after eviction: %v", e.Name, err))
	}
	r := &resident{m: m, off: off, size: shard, lastUsed: e.eng.Now()}
	e.residents[m.Name] = r
	load := func() {
		submit := func() {
			var dur time.Duration
			if e.cfg.ModelCache == nil || e.cfg.ModelCache.Contains(m.Name) {
				dur = e.CostFor(id).Switch()
			} else {
				e.stats.CacheMisses++
				_ = e.cfg.ModelCache.Insert(m.Name, m.WeightBytes())
				dur = e.CostFor(id).Switch() + e.fetchTime(m)
			}
			ls := e.eng.Now()
			e.loader.SubmitChunked(gpu.H2D, dur, loadChunk, gpu.OpInfo{Kind: gpu.OpLoad, Model: id}, func() {
				r.loading = nil
				e.cfg.Obs.SwitchStage(e.Name, "weight-load", ls, e.eng.Now())
				finish()
			})
			r.loading = e.loader.Record()
		}
		if e.cfg.ModelCache != nil && !e.cfg.ModelCache.Contains(m.Name) {
			e.awaitFetchable(m, 0, submit)
		} else {
			submit()
		}
	}
	if compactDur > 0 {
		inner := load
		load = func() {
			cs := e.eng.Now()
			e.compute.SubmitOp(gpu.Compute, compactDur,
				gpu.OpInfo{Kind: gpu.OpCompactResidents, Model: id}, func() {
					e.cfg.Obs.SwitchStage(e.Name, "compact", cs, e.eng.Now())
					inner()
				})
		}
	}
	if !e.booted || !e.cfg.Opts.ComponentReuse {
		e.stats.Reinits++
		p := e.cfg.Prof
		reinitStart := e.eng.Now()
		e.cfg.Fleet.Enter(e.Name, fleetobs.Reinit, id)
		e.eng.After(p.DistExecInit+p.ProfileOpt+p.KVInit+p.MiscInit, func() {
			e.booted = true
			e.cfg.Fleet.Exit(e.Name, fleetobs.Reinit)
			e.cfg.Obs.SwitchStage(e.Name, "reinit", reinitStart, e.eng.Now())
			load()
		})
		return
	}
	load()
}

// makeRoomColocate frees least-recently-used residents until size bytes
// fit. The target model, the current model, and residents with in-flight
// loads are never evicted. If eviction leaves enough total but fragmented
// space, the survivors are compacted; the returned duration is the
// on-device copy cost to charge (zero when no compaction was needed).
func (e *Engine) makeRoomColocate(size int64, keepID model.ID, keep *model.Model) (time.Duration, error) {
	for e.region.LargestFree() < size {
		var victim *resident
		for _, r := range e.residents {
			if r.m.Name == keep.Name || r.loading != nil {
				continue
			}
			if e.current != nil && r.m.Name == e.current.Name {
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
		delete(e.residents, victim.m.Name)
	}
	if e.region.LargestFree() >= size {
		return 0, nil
	}
	if e.region.FreeBytes() < size {
		return 0, fmt.Errorf("colocate: cannot fit %d bytes for %s: %d free after eviction",
			size, keep.Name, e.region.FreeBytes())
	}
	// Compact: survivors with in-flight loads cannot move.
	var moved int64
	for _, r := range e.residents {
		if r.loading != nil {
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
	return e.CostFor(keepID).OnDeviceCopy(moved), nil
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
	e.costs = model.Grow(e.costs, id)
	c := latency.NewCostModel(e.cfg.Prof, e.model(id), e.cfg.TP)
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

// SwitchTo performs preemptive scale-up to model id: unload the current model
// (instant bump reset, or a GC pause without explicit memory management),
// (re)initialize engine components as the options dictate, and load the new
// weights (prefetch hit, model-cache hit via the stage buffer, naive slow
// path, or remote registry fetch). done fires when inference for the model may
// begin. Concurrent switches on one engine are a programming error.
func (e *Engine) SwitchTo(id model.ID, done func()) {
	if e.switching {
		panic(fmt.Sprintf("engine %s: concurrent SwitchTo", e.Name))
	}
	if e.current != nil && e.curID == id {
		done()
		return
	}
	m := e.model(id)
	e.switching = true
	start := e.eng.Now()
	e.stats.Switches++
	from := ""
	if e.current != nil {
		from = e.current.Name
	}
	e.cfg.Obs.BeginSwitch(e.Name, from, m.Name, start, e.booted && e.cfg.Opts.ComponentReuse)

	if e.cfg.Opts.Colocate {
		e.switchColocated(id, m, start, done)
		return
	}

	finish := func() {
		e.switching = false
		e.current, e.curID, e.curCost = m, id, e.CostFor(id)
		e.stats.SwitchLatency.AddDuration(e.eng.Now() - start)
		e.cfg.Obs.EndSwitch(e.Name, e.eng.Now())
		done()
	}

	afterUnload := func() {
		if !e.booted || !e.cfg.Opts.ComponentReuse {
			// Full engine (re)initialization: distributed executor,
			// profiling, KV pinning, misc (Fig. 7).
			e.stats.Reinits++
			p := e.cfg.Prof
			reinit := p.DistExecInit + p.ProfileOpt + p.KVInit + p.MiscInit
			reinitStart := e.eng.Now()
			e.cfg.Fleet.Enter(e.Name, fleetobs.Reinit, id)
			e.eng.After(reinit, func() {
				e.booted = true
				e.cfg.Fleet.Exit(e.Name, fleetobs.Reinit)
				e.cfg.Obs.SwitchStage(e.Name, "reinit", reinitStart, e.eng.Now())
				e.loadWeights(id, m, finish)
			})
			return
		}
		e.loadWeights(id, m, finish)
	}

	// Unload / scale-down of the resident weights.
	e.dropPrefetchIfStale(m)
	if e.current == nil {
		afterUnload()
		return
	}
	if e.cfg.Opts.ExplicitMemory {
		// O(1) bump reset — the prefetched copy (if for m) survives
		// logically: we model compaction as an on-device copy below.
		e.weights.Reset()
		afterUnload()
		return
	}
	// Tensor-library path: a garbage collection pass reclaims VRAM.
	e.stats.GCPauses++
	e.weights.Reset()
	gcStart := e.eng.Now()
	e.cfg.Fleet.Enter(e.Name, fleetobs.GCPause, id)
	e.eng.After(e.cfg.Prof.GCPause, func() {
		e.cfg.Fleet.Exit(e.Name, fleetobs.GCPause)
		e.cfg.Obs.SwitchStage(e.Name, "gc-pause", gcStart, e.eng.Now())
		afterUnload()
	})
}

// loadWeights brings m's weights into VRAM and calls done.
func (e *Engine) loadWeights(id model.ID, m *model.Model, done func()) {
	cost := e.CostFor(id)
	shard := m.ShardWeightBytes(e.cfg.TP)

	// Prefetch hit: the weights are already on the device; compact them to
	// the start of the buffer with a cheap on-device copy (§5.2 step 3.b).
	if e.cfg.Opts.Prefetch && e.prefetched != nil && e.prefetched.Name == m.Name {
		ready := e.prefetchReady
		e.prefetched = nil
		e.prefetchReady = nil
		e.stats.PrefetchHits++
		copyDur := cost.OnDeviceCopy(shard)
		run := func() {
			if _, err := e.weights.Alloc(shard, 256); err != nil {
				panic(fmt.Sprintf("engine %s: weights region cannot hold compacted model: %v", e.Name, err))
			}
			cs := e.eng.Now()
			e.compute.SubmitOp(gpu.Compute, copyDur,
				gpu.OpInfo{Kind: gpu.OpCompact, Model: id}, func() {
					e.cfg.Obs.SwitchStage(e.Name, "compact", cs, e.eng.Now())
					done()
				})
		}
		if ready.Query() {
			run()
		} else {
			ready.OnComplete(run)
		}
		return
	}

	if _, err := e.weights.Alloc(shard, 256); err != nil {
		panic(fmt.Sprintf("engine %s: weights region too small for %s: %v", e.Name, m.Name, err))
	}

	loadFromHost := func() {
		var dur time.Duration
		if e.cfg.Opts.ComponentReuse {
			// Optimized multi-threaded, chunked, pipelined stage-buffer copy
			// (§5.2): achieves the Eq. 4 β-derated PCIe bandwidth.
			dur = cost.Switch()
		} else {
			// Naive engine loading path (Fig. 7: 2.83 GB/s).
			dur = cost.NaiveLoad()
		}
		ls := e.eng.Now()
		e.loader.SubmitChunked(gpu.H2D, dur, loadChunk, gpu.OpInfo{Kind: gpu.OpLoad, Model: id}, func() {
			e.cfg.Obs.SwitchStage(e.Name, "weight-load", ls, e.eng.Now())
			done()
		})
	}

	if e.cfg.ModelCache != nil {
		if e.cfg.ModelCache.Contains(m.Name) {
			loadFromHost()
			return
		}
		// Remote registry fetch, then cached in host memory.
		e.stats.CacheMisses++
		e.fetchRemote(id, m, 0, loadFromHost)
		return
	}
	loadFromHost()
}

// fetchTime is how long m's weights take to arrive from the tier below the
// host model cache, under any injected fetch slowdown.
func (e *Engine) fetchTime(m *model.Model) time.Duration {
	return time.Duration(float64(m.WeightBytes()) / remoteLoadBPS * float64(time.Second) * e.cfg.Faults.FetchFactor())
}

// fetchRemote pulls m's weights from the tier below the host model cache and
// fires done once they are cached. Injected fetch failures retry with
// jittered exponential backoff; when the bounded attempt budget is exhausted
// the counter is recorded and the budget re-arms after one more backoff —
// a switch must eventually make progress, never wedge the instance. Injected
// slowdowns multiply the transfer time. With no fault state attached the
// timing is identical to a fault-free build.
func (e *Engine) fetchRemote(id model.ID, m *model.Model, attempt int, done func()) {
	e.awaitFetchable(m, attempt, func() {
		fetch := e.fetchTime(m)
		fs := e.eng.Now()
		e.cfg.Fleet.Enter(e.Name, fleetobs.Fetch, id)
		e.eng.After(fetch, func() {
			e.cfg.Fleet.Exit(e.Name, fleetobs.Fetch)
			e.cfg.Obs.SwitchStage(e.Name, "fetch", fs, e.eng.Now())
			// A full cache is tolerable: the fetched weights stream through
			// the stage buffer regardless; only future hits are lost.
			_ = e.cfg.ModelCache.Insert(m.Name, m.WeightBytes())
			done()
		})
	})
}

// awaitFetchable delays then with jittered backoff while remote fetches of m
// are failing; with no active fault window (in particular with nil fault
// state) it calls then synchronously.
func (e *Engine) awaitFetchable(m *model.Model, attempt int, then func()) {
	f := e.cfg.Faults
	if !f.FetchFailing(m.Name) {
		then()
		return
	}
	f.CountFetchFailure()
	e.cfg.Obs.Fault(e.Name, "fetchfail", m.Name, e.eng.Now())
	next := attempt + 1
	if next >= f.MaxAttempts() {
		f.CountFetchExhausted()
		next = 0
	}
	delay := f.RetryDelay(attempt)
	f.CountFetchRetry()
	e.cfg.Obs.Retry(e.Name, "fetch "+m.Name, e.eng.Now())
	e.eng.After(delay, func() { e.awaitFetchable(m, next, then) })
}

// dropPrefetchIfStale discards a prefetched model that is not the switch
// target (its arena space is reclaimed by the imminent reset).
func (e *Engine) dropPrefetchIfStale(target *model.Model) {
	if e.prefetched != nil && e.prefetched.Name != target.Name {
		e.prefetched = nil
		e.prefetchReady = nil
	}
}

// StartPrefetch begins loading model id into spare weights-region VRAM on the
// prefetch stream (§5.2), if the options allow, space suffices, and no
// prefetch is already pending. Returns true if a prefetch was started or is
// already in flight for it.
func (e *Engine) StartPrefetch(id model.ID) bool {
	m := e.model(id)
	if e.cfg.Opts.Colocate {
		return e.prefetchColocated(id, m)
	}
	if !e.cfg.Opts.Prefetch || e.switching {
		return false
	}
	if e.current != nil && e.curID == id {
		return false
	}
	if e.prefetched != nil {
		return e.prefetched.Name == m.Name
	}
	if e.prefetchPending {
		return false
	}
	if e.cfg.ModelCache != nil && !e.cfg.ModelCache.Contains(m.Name) && e.cfg.Faults.FetchFailing(m.Name) {
		return false // prefetch is opportunistic: skip while the registry is down
	}
	shard := m.ShardWeightBytes(e.cfg.TP)
	if e.weights.Free() < shard {
		return false // e.g. A10: no room for a second model (§7.4)
	}
	if _, err := e.weights.Alloc(shard, 256); err != nil {
		return false
	}
	var dur time.Duration
	if e.cfg.ModelCache == nil || e.cfg.ModelCache.Contains(m.Name) {
		dur = e.CostFor(id).Switch()
	} else {
		e.stats.CacheMisses++
		dur = e.CostFor(id).Switch() + e.fetchTime(m)
		_ = e.cfg.ModelCache.Insert(m.Name, m.WeightBytes())
	}
	e.prefetchPending = true
	e.prefetch.SubmitChunked(gpu.H2D, dur, loadChunk,
		gpu.OpInfo{Kind: gpu.OpPrefetch, Model: id}, func() {
			e.prefetchPending = false
		})
	e.prefetchReady = e.prefetch.Record()
	e.prefetched = m
	return true
}

// prefetchColocated pre-loads m as a resident if the region has room
// without evicting anything (prefetch must never displace hotter models).
func (e *Engine) prefetchColocated(id model.ID, m *model.Model) bool {
	if !e.cfg.Opts.Prefetch || e.switching {
		return false
	}
	if _, ok := e.residents[m.Name]; ok {
		return true
	}
	if e.cfg.ModelCache != nil && !e.cfg.ModelCache.Contains(m.Name) && e.cfg.Faults.FetchFailing(m.Name) {
		return false // prefetch is opportunistic: skip while the registry is down
	}
	shard := m.ShardWeightBytes(e.cfg.TP)
	if e.region.LargestFree() < shard {
		return false
	}
	off, err := e.region.Alloc(shard)
	if err != nil {
		return false
	}
	r := &resident{m: m, off: off, size: shard, lastUsed: e.eng.Now()}
	e.residents[m.Name] = r
	var dur time.Duration
	if e.cfg.ModelCache == nil || e.cfg.ModelCache.Contains(m.Name) {
		dur = e.CostFor(id).Switch()
	} else {
		e.stats.CacheMisses++
		dur = e.CostFor(id).Switch() + e.fetchTime(m)
		_ = e.cfg.ModelCache.Insert(m.Name, m.WeightBytes())
	}
	e.prefetch.SubmitChunked(gpu.H2D, dur, loadChunk,
		gpu.OpInfo{Kind: gpu.OpPrefetch, Model: id}, func() {
			r.loading = nil
		})
	r.loading = e.prefetch.Record()
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
	e.stats.PrefixHostBytes += hostBytes
	e.stats.PrefixDeviceBytes += deviceBytes
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
