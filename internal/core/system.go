package core

import (
	"fmt"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/latency"
	"aegaeon/internal/market"
	"aegaeon/internal/memory"
	"aegaeon/internal/metrics"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/overload"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// Config parameterizes a full Aegaeon serving system.
type Config struct {
	Prof *latency.Profile
	TP   int
	Opts engine.Options

	NumPrefill int
	NumDecode  int

	Models []*model.Model // the market; host cache is pre-warmed with them
	SLO    slo.SLO
	// ModelSLOs optionally overrides the SLO per model name (an extension
	// beyond the paper, which gives all requests to one model identical
	// SLOs and all models the same targets in evaluation).
	ModelSLOs map[string]slo.SLO

	// Scheduler constants (§4.2, §4.3).
	MaxGroupSize int           // MAX_GPSIZE, default DefaultMaxGroupSize
	QMax         time.Duration // QMAX, default 4s

	// Memory geometry.
	BlockTokens int
	// hostDRAM overrides hostDRAMBytes for tests that need CPU memory
	// pressure (0 = the constant).
	hostDRAM int64

	// Obs, when non-nil, is the observability collector receiving flat
	// scheduler events, request span timelines, device op timelines, and
	// switch-cost attribution. Nil leaves observability off with zero
	// overhead.
	Obs *obs.Collector

	// SLOMon, when non-nil, receives every token's deadline judgement as it
	// is produced (plus request-level mirrors of the tracker sites), powering
	// live sliding-window attainment, burn-rate alerts, and miss attribution.
	// Nil keeps the token hot path free of monitoring overhead.
	SLOMon *slomon.Monitor

	// FixedQuota disables the Eq. 2 quota formula and gives every decoding
	// batch a flat QMax turn — the ablation for §4.3's weighted scheme.
	FixedQuota bool

	// Faults is the shared fault-injection state, threaded into every
	// engine's fetch and KV-transfer paths. Nil (the default) keeps the
	// system byte-identical to a fault-free build.
	Faults *fault.Faults

	// Overload, when non-nil, enables overload control: the brownout
	// controller is stepped from the live monitor's burn-rate state at every
	// admission, requests are shed by tier and by first-token feasibility,
	// degraded prefill scheduling orders groups by (priority, slack), and a
	// reaper aborts doomed requests mid-queue. Nil (the default) leaves
	// scheduling byte-identical to the uncontrolled system.
	Overload *overload.Controller

	// Fleet, when non-nil, is the fleet utilization ledger: every device's
	// GPU-seconds are partitioned into exclusive states (idle, prefill,
	// decode, switch stages, DMA, faulted) with goodput token attribution
	// per model and KV pool watermarks. Nil (the default) keeps the serving
	// path free of accounting overhead.
	Fleet *fleetobs.Ledger

	// Prefix enables the global prefix cache: prefill consults it to skip
	// recomputing cached prompt prefixes, computed prefixes are inserted for
	// later turns, and dispatch steers a conversation's next turn toward the
	// instance holding its prefix. Off leaves the serving path
	// byte-identical to a cache-free build.
	Prefix bool

	// Decisions, when non-nil, is the decision-provenance journal: every
	// policy site (admission gates, the brownout ladder, shedding, routing
	// and placement scoring, switches, KV/prefix eviction, spot evacuation)
	// records its candidate set, score terms, and chosen outcome there. Nil
	// (the default) keeps every policy hot path free of journaling — call
	// sites nil-check before building record slices, so the off path is
	// allocation-free.
	Decisions *decision.Journal

	// Market, when non-nil, is the spot-market model: heterogeneous device
	// classes (each instance registers for a class whose profile sizes its
	// compute, interconnect, and VRAM regions), spot price traces, preemption
	// notices with KV evacuation ahead of the revocation deadline, and
	// risk-adjusted placement. Nil keeps the pool homogeneous and the serving
	// path byte-identical to a market-free build.
	Market *market.Market

	// The VRAM split applyDefaults derives from the profile and model set:
	// the weights region and the GPU KV region of every instance.
	weightsRegion, kvRegion int64
}

// DefaultMaxGroupSize is MAX_GPSIZE (§4.2) when Config leaves it zero.
const DefaultMaxGroupSize = 8

const (
	// kvHeadroom is the fraction of the GPU KV region the batch-size
	// derivation may plan to fill.
	kvHeadroom = 0.9
	// nodeGPUs is the number of GPUs per physical node (§7.1); host-memory
	// capacity scales with the node count the pool spans.
	nodeGPUs = 8
	// hostDRAMBytes is each node's host DRAM (§7.1: 2 TB per node).
	hostDRAMBytes = 2 << 40
)

func (c *Config) applyDefaults() {
	if c.TP < 1 {
		c.TP = 1
	}
	if c.MaxGroupSize <= 0 {
		c.MaxGroupSize = DefaultMaxGroupSize
	}
	if c.QMax <= 0 {
		c.QMax = 4 * time.Second
	}
	if c.BlockTokens <= 0 {
		c.BlockTokens = 16
	}
	if c.hostDRAM <= 0 {
		c.hostDRAM = hostDRAMBytes
	}
	var err error
	if c.weightsRegion, c.kvRegion, c.Opts.Prefetch, err = c.regionsFor(c.Prof); err != nil {
		panic(err)
	}
}

// LargestShard returns the model whose tp-way weight shard is largest, and
// that shard's size in bytes: the model that sizes every weights region.
func LargestShard(models []*model.Model, tp int) (biggest *model.Model, shard int64) {
	for _, m := range models {
		if s := m.ShardWeightBytes(tp); biggest == nil || s > shard {
			biggest, shard = m, s
		}
	}
	return biggest, shard
}

// CheckFit returns an error when a prof device cannot hold the largest of
// models' tp-way shards beside one default KV slab, the case in which the
// VRAM derivation NewSystem runs per instance would panic. Prefetch and
// colocation are left out: they only widen the weights region when the KV
// region can spare it.
func CheckFit(prof *latency.Profile, models []*model.Model, tp int) error {
	c := Config{TP: tp, Models: models}
	_, _, _, err := c.regionsFor(prof)
	return err
}

// regionsFor derives the VRAM split applyDefaults gives a homogeneous pool,
// for one device profile: the weights region, the KV region, and whether
// prefetching a second model fits. Factored out so heterogeneous market
// classes can size each instance for its own VRAM capacity. It fails when
// no KV slab is left beside the weights.
func (c *Config) regionsFor(prof *latency.Profile) (weights, kv int64, prefetch bool, err error) {
	usable := int64(float64(prof.VRAMBytes) * 0.9) // §5.2: ~10% left to the tensor library
	_, maxShard := LargestShard(c.Models, c.TP)
	weights = maxShard + maxShard/16 // headroom for alignment
	if c.Opts.Colocate {
		// Colocation sizes the weights region for about three resident
		// models — enough to amortize switches between the hot set
		// without starving the KV cache (more residents would trade KV
		// capacity for little extra switch savings; see the §8
		// ablation).
		w := 3*maxShard + maxShard/8
		if max := usable - usable*15/100; w > max {
			w = max
		}
		if w < weights {
			w = weights // at least one model must fit
		}
		weights = w
		kv = usable - weights
		if kv < engine.KVSlabBytes {
			return 0, 0, false, fmt.Errorf("core: no VRAM left for KV cache under colocation (weights %d, usable %d)",
				weights, usable)
		}
		return weights, kv, c.Opts.Prefetch, nil
	}
	// Prefetch needs room for a second resident model, but never at the
	// cost of starving the KV cache: require at least max(4 GiB, 8% of
	// usable VRAM) left for KV afterwards (§7.4 disables prefetching on
	// A10s for the same reason).
	minKV := int64(float64(usable) * 0.08)
	if minKV < 4<<30 {
		minKV = 4 << 30
	}
	if c.Opts.Prefetch && usable-(2*weights+weights/8) >= minKV {
		weights = 2*weights + weights/8 // room for a prefetched second model
		prefetch = true
	}
	kv = usable - weights
	if kv < engine.KVSlabBytes {
		return 0, 0, false, fmt.Errorf("core: no VRAM left for KV cache (weights %d, usable %d)",
			weights, usable)
	}
	return weights, kv, prefetch, nil
}

// System is one Aegaeon deployment: a pool of prefill and decoding
// instances sharing a host model cache and unified CPU KV cache.
type System struct {
	eng *sim.Engine
	cfg Config

	modelCache *memory.ModelCache
	cpuKV      *kvcache.Cache
	prefix     *prefixcache.Cache  // nil when the prefix cache is off
	ids        *model.Registry     // model ids, shared by every system on the same observers
	models     map[string]model.ID // this system's models, by name
	slos       []slo.SLO           // per-model SLO, indexed by model id

	prefills []*prefillInstance
	decodes  []*decodeInstance
	runs     runSettler // the decode runs in flight, settled step by step

	// prefixOnDevice is routing's per-tier device-resident prompt tokens,
	// refilled by every prefix-cache Match call.
	prefixOnDevice []int

	tracker *slo.Tracker
	// tiers splits the tracker's tokens by service tier, indexed by
	// workload.Priority, so overload reports can show that shedding
	// protected high-tier attainment instead of laundering misses.
	tiers [workload.NumPriorities]slo.Counts
	// shedReasons counts overload sheds by typed reason.
	shedReasons map[string]int
	reaperArmed bool
	mon         *slomon.Monitor
	fleet       *fleetobs.Ledger
	obs         *obs.Collector
	dec         *decision.Journal
	breakdown   *metrics.Breakdown
	requests    []*Request
	completed   int
	failed      int
	liveOpen    int // live-submitted requests not yet finished
	// logTokens keeps every request's token times in TokenTimes; off, a
	// request keeps only its verdict, token count and end times.
	logTokens bool

	// orphans stashes the in-flight requests of crashed instances, keyed by
	// engine name, until RecoverOrphansOf re-dispatches them.
	orphans map[string][]*Request

	// evacuating tracks, per noticed instance, the requests whose KV offload
	// to the host tier is still in flight; they re-home when the transfer
	// lands or fall through to the crash path at the revocation deadline.
	evacuating map[string]map[*Request]bool

	// Per-request decode waiting is derived at finish time.
	kvSyncPerReq metrics.CDF // Fig. 15 right

	// The observers copy what they are given, so records and batch lists
	// are built in buffers the system reuses: jot holds a journal record's
	// terms and candidates, reqIDs and reqTLs a batch's request ids and
	// timeline handles, and reasons the reasons built from a model name.
	jot     decision.Scratch
	reqIDs  []string
	reqTLs  []obs.Handle
	reasons map[[3]string]string
}

// NewSystem builds a system on the simulation engine, with model ids of its
// own.
func NewSystem(se *sim.Engine, cfg Config) *System {
	return NewSystemIn(se, cfg, model.NewRegistry())
}

// NewSystemIn builds a system whose models take their ids from ids. Systems
// that share observers must share one registry, so that an id names one
// model in every observer; a cluster passes one registry to all of its
// deployments. The system names its models to the observers in cfg.
func NewSystemIn(se *sim.Engine, cfg Config, ids *model.Registry) *System {
	cfg.applyDefaults()
	if cfg.NumPrefill < 1 || cfg.NumDecode < 1 {
		panic("core: need at least one prefill and one decode instance")
	}
	// The pool spans ceil(totalGPUs / nodeGPUs) physical nodes; the model
	// cache and unified CPU KV cache aggregate their DRAM (Fig. 5 shows one
	// per node; we model the union, with KV transfers treated as intra-node).
	totalGPUs := (cfg.NumPrefill + cfg.NumDecode) * cfg.TP
	nodes := (totalGPUs + nodeGPUs - 1) / nodeGPUs
	if nodes < 1 {
		nodes = 1
	}
	dram := cfg.hostDRAM * int64(nodes)
	s := &System{
		eng:        se,
		cfg:        cfg,
		modelCache: memory.NewModelCache(int64(float64(dram) * 0.6)),
		cpuKV: kvcache.NewCache("cpu-kv", int64(float64(dram)*0.3),
			engine.KVSlabBytes, cfg.BlockTokens),
		ids:         ids,
		models:      map[string]model.ID{},
		orphans:     map[string][]*Request{},
		evacuating:  map[string]map[*Request]bool{},
		shedReasons: map[string]int{},
		tracker:     slo.NewTracker(),
		mon:         cfg.SLOMon,
		fleet:       cfg.Fleet,
		obs:         cfg.Obs,
		dec:         cfg.Decisions,
		breakdown:   &metrics.Breakdown{},
	}
	se.AddSettler(&s.runs)
	for _, m := range cfg.Models {
		id := ids.Add(m)
		s.models[m.Name] = id
		s.slos = model.Grow(s.slos, id)
		s.slos[id] = cfg.SLO
		if v, ok := cfg.ModelSLOs[m.Name]; ok {
			s.slos[id] = v
		}
		cfg.Obs.NameModel(id, m.Name)
		cfg.SLOMon.NameModel(id, m.Name)
		cfg.Fleet.NameModel(id, m.Name)
		// Pre-warm the host model cache (best effort; misses fall back to
		// the remote registry path).
		_ = s.modelCache.Insert(m.Name, m.WeightBytes())
	}
	mkEngine := func(name string) *engine.Engine {
		prof, opts := cfg.Prof, cfg.Opts
		weights, kvRegion := cfg.weightsRegion, cfg.kvRegion
		if cls := cfg.Market.Register(name); cls != nil && cls.Prof != nil && cls.Prof.Name != prof.Name {
			// Heterogeneous pool: the instance runs its market class's
			// hardware, with a VRAM split derived for that class's capacity
			// (a 24 GB consumer card gets a smaller KV region and loses
			// prefetch headroom, mirroring §7.4's A10 treatment).
			prof = cls.Prof
			var pf bool
			var err error
			if weights, kvRegion, pf, err = cfg.regionsFor(prof); err != nil {
				panic(err)
			}
			opts.Prefetch = opts.Prefetch && pf
		}
		return engine.New(se, name, engine.Config{
			Prof:               prof,
			TP:                 cfg.TP,
			Opts:               opts,
			WeightsRegionBytes: weights,
			KVRegionBytes:      kvRegion,
			BlockTokens:        cfg.BlockTokens,
			ModelCache:         s.modelCache,
			CPUKV:              s.cpuKV,
			Obs:                cfg.Obs,
			Fleet:              cfg.Fleet,
			Faults:             cfg.Faults,
		}, ids)
	}
	if cfg.Prefix {
		// The prefix cache's host tier allocates from the same shared CPU KV
		// pool sequence swap-outs use; its budget keeps the two from starving
		// each other. The system's decision journal (when on) observes its
		// eviction victim choices, stamped with virtual time.
		s.prefix = prefixcache.New(prefixcache.Config{Journal: s.dec, Clock: s.eng.Now}, s.cpuKV)
	}
	for i := 0; i < cfg.NumPrefill; i++ {
		e := mkEngine(fmt.Sprintf("prefill%d", i))
		e.WarmBoot() // instances are long-running; experiments start warm
		p := newPrefillInstance(s, e)
		s.prefills = append(s.prefills, p)
		if s.prefix != nil {
			// Only prefill instances hold device copies: that is where prompt
			// KV is produced and reused. Decode instances receive KV through
			// the existing swap-in path.
			p.tier = s.prefix.AttachDevice(e.Name, e.KV().GPUCache)
		}
	}
	for i := 0; i < cfg.NumDecode; i++ {
		e := mkEngine(fmt.Sprintf("decode%d", i))
		e.WarmBoot()
		s.decodes = append(s.decodes, newDecodeInstance(s, e))
	}
	return s
}

// Submit schedules the trace's arrivals into the simulation as one feed.
// Must be called before running the simulation. A trace naming an unknown
// model is rejected whole: nothing is scheduled or recorded.
func (s *System) Submit(trace []workload.Request) error {
	reqs := make([]*Request, len(trace))
	times := make([]sim.Time, len(trace))
	for i, wr := range trace {
		id, ok := s.models[wr.Model]
		if !ok {
			return fmt.Errorf("core: request %s targets unknown model %q", wr.ID, wr.Model)
		}
		r := newRequest(wr, s.ids.Model(id), id)
		r.Deadline = s.sloFor(id).Deadline(wr.Arrival, 0)
		reqs[i], times[i] = r, wr.Arrival
	}
	s.requests = append(s.requests, reqs...)
	s.eng.Feed(times, func(i int) {
		if r := reqs[i]; s.admitOverload(r) {
			s.dispatchPrefill(r)
		}
	})
	return nil
}

// SubmitLive admits one request at the current virtual time and dispatches
// it immediately — the live-serving entry point used by the gateway. It
// must be called on the simulation goroutine (via the sim.Driver injection
// API); the hooks fire there too, as tokens are produced. Unlike Submit,
// live requests are not retained for batch Finalize reporting: their SLO
// observation folds into the tracker at completion, so a long-running
// gateway does not accumulate per-request state.
func (s *System) SubmitLive(wr workload.Request, onToken func(i int, at sim.Time), onDone func(*Request)) (*Request, error) {
	id, ok := s.models[wr.Model]
	if !ok {
		return nil, fmt.Errorf("core: request %s targets unknown model %q", wr.ID, wr.Model)
	}
	if wr.InputTokens < 1 || wr.OutputTokens < 1 {
		return nil, fmt.Errorf("core: request %s has non-positive token counts", wr.ID)
	}
	wr.Arrival = s.eng.Now()
	r := newRequest(wr, s.ids.Model(id), id)
	r.Deadline = s.sloFor(id).Deadline(wr.Arrival, 0)
	r.live = true
	r.OnToken = onToken
	r.OnDone = onDone
	s.liveOpen++
	if s.admitOverload(r) {
		s.dispatchPrefill(r)
	}
	return r, nil
}

// LogTokens turns on the token log: from now on every request keeps each
// token's completion time in TokenTimes, for audits and tests that read a
// whole stream. It changes nothing else the system does. Call it before
// requests are submitted.
func (s *System) LogTokens() { s.logTokens = true }

// LiveInFlight returns the number of live-submitted requests not yet
// finished.
func (s *System) LiveInFlight() int { return s.liveOpen }

// dispatchPrefill implements Algorithm 1's arrival event: join an existing
// same-model group anywhere in the pool if one has room; otherwise open a
// new group on the least-loaded prefill instance. With cache-aware routing
// enabled, placement instead minimizes load minus the expected prefix-reuse
// benefit on each instance — affinity is a bounded credit against queue
// depth, never an override of it (or of admission control, which already ran).
func (s *System) dispatchPrefill(r *Request) {
	if r.terminal() {
		return
	}
	r.tl = s.obs.RequestArrived(r.ID, r.Model.Name, s.eng.Now())
	if s.prefix != nil && len(r.Segments) > 0 {
		if best := s.routePrefix(r); best != nil {
			if !best.tryJoinGroup(r) {
				best.newGroup(r)
			}
			return
		}
		// Fall through: every instance is dead or market-excluded; the
		// generic path below waives exclusions before failing the request.
	}
	for _, p := range s.prefills {
		if !p.dead && s.marketAllows(p.eng.Name) && p.tryJoinGroup(r) {
			if j := s.dec; j != nil {
				j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindPrefillRouting,
					Request: r.ID, Model: r.Model.Name, Instance: p.eng.Name,
					Outcome: p.eng.Name, Reason: "joined open group"})
			}
			return
		}
	}
	best := s.bestPrefill(r)
	if best == nil {
		s.failRequest(r, "no surviving prefill capacity")
		return
	}
	best.newGroup(r)
}

// bestPrefill returns the surviving prefill instance with the lowest
// market-adjusted load score. When every survivor is market-excluded (under
// a reclaim notice or VRAM-starved) the exclusions are waived:
// serving on a risky device beats failing the request.
func (s *System) bestPrefill(r *Request) *prefillInstance {
	i := s.choose(r, decision.KindPrefillRouting, "", true, len(s.prefills), func(i int) bid {
		p := s.prefills[i]
		if p.dead {
			return bid{}
		}
		sw := p.eng.CostFor(r.mid).Switch()
		penS, ok := s.marketPenalty(p.eng, sw)
		pen := time.Duration(penS * float64(time.Second))
		capab := s.marketCapability(p.eng.Name)
		load := p.load()
		score := time.Duration(float64(load)/capab) + pen
		b := bid{eng: p.eng, score: float64(score), ok: ok}
		if s.dec != nil {
			b.terms = s.jot.Terms(
				decision.NsTerm("load", load),
				decision.Term{Name: "capability", Value: capab},
				decision.NsTerm("market_penalty", pen),
				decision.NsTerm("switch_cost", sw),
			)
		}
		return b
	})
	if i < 0 {
		return nil
	}
	return s.prefills[i]
}

// bid is one instance's entry in a placement decision.
type bid struct {
	eng   *engine.Engine  // nil when the instance is dead
	score float64         // lower wins
	ok    bool            // the market allows placement on the instance
	terms []decision.Term // the score's journal terms, in s.jot; nil when the journal is off
}

// choose is the one placement argmin behind Algorithms 1 and 2: it returns
// the index of the live, market-allowed instance with the lowest score among
// the n that score bids for, or -1 when there is none. With waivable set and
// every survivor excluded, a second pass waives the exclusions. When the
// journal is on, the decision lands in it as one record of kind, with every
// live instance as a candidate (excluded ones flagged) and the winner marked.
func (s *System) choose(r *Request, kind, reason string, waivable bool, n int, score func(i int) bid) int {
	best, chosen := s.scan(n, score, false)
	if best < 0 && waivable {
		reason = "market exclusions waived"
		best, chosen = s.scan(n, score, true)
	}
	if s.dec != nil {
		cands := s.jot.Candidates()
		rec := decision.Record{At: s.eng.Now(), Kind: kind, Request: r.ID, Model: r.Model.Name,
			Outcome: "none", Reason: reason, Candidates: cands}
		if best >= 0 {
			cands[chosen].Chosen = true
			rec.Outcome, rec.Instance = cands[chosen].Name, cands[chosen].Name
		}
		s.dec.Record(rec)
	}
	return best
}

// scan is one pass of choose. It returns the winning index and, when the
// journal is on, the winner's position among the candidates the pass
// left in s.jot.
func (s *System) scan(n int, score func(i int) bid, waive bool) (best, chosen int) {
	best, chosen = -1, -1
	s.jot.Reset()
	var bestScore float64
	for i := 0; i < n; i++ {
		b := score(i)
		if b.eng == nil {
			continue
		}
		if !b.ok && !waive {
			if s.dec != nil {
				s.jot.Candidate(decision.Candidate{Name: b.eng.Name, Excluded: true})
			}
			continue
		}
		c := -1
		if s.dec != nil {
			c = s.jot.Candidate(decision.Candidate{Name: b.eng.Name, Score: b.score, Terms: b.terms})
		}
		if best < 0 || b.score < bestScore {
			best, chosen, bestScore = i, c, b.score
		}
	}
	return best, chosen
}

// marketCapability is the capability divisor aware placement normalizes load
// scores by: a queue on a device with 0.13 of the pool's best compute counts
// ~8x its length, so weak consumer cards stop looking empty just because
// their (slow) queues are short. 1 for homogeneous pools, dead devices, and
// spot-naive mode — the naive baseline stays capability-blind by design.
func (s *System) marketCapability(name string) float64 {
	if !s.cfg.Market.Enabled() || !s.cfg.Market.Aware() {
		return 1
	}
	if c := s.cfg.Market.CapabilityScore(name); c > 0 {
		return c
	}
	return 1
}

// marketPenalty refreshes the market's VRAM-headroom view of an instance from
// its GPU KV pool occupancy (feeding the capability-scoring
// exclusion), then prices its placement risk in load-score units
// (one penalty point ≈ one second of queued work); ok=false means aware
// placement excludes the device. A nil market yields (0, true), keeping
// dispatch byte-identical to the market-free build.
func (s *System) marketPenalty(e *engine.Engine, switchCost time.Duration) (float64, bool) {
	if s.cfg.Market.Enabled() {
		pool := e.KV().GPUCache.Pool()
		if c := pool.Capacity(); c > 0 {
			s.cfg.Market.NoteHeadroom(e.Name, 1-float64(pool.UsedBytes())/float64(c))
		}
	}
	return s.cfg.Market.PlacementPenalty(e.Name, switchCost)
}

// marketAllows reports whether aware placement may target the instance (the
// fast-path join check; exclusions are waived only through choose).
func (s *System) marketAllows(name string) bool {
	_, ok := s.cfg.Market.PlacementPenalty(name, 0)
	return ok
}

// routePrefix scores every live prefill instance as (queue load − expected
// prefix benefit) and returns the minimum; nil when no instance survives.
// The benefit is the prefill compute the instance's cached prefix would
// avoid, minus the tier-dependent copy cost of materializing it — so a long
// hit on a deeply queued instance loses to a miss on an idle one exactly
// when recomputing is faster than waiting, which keeps cache affinity
// subordinate to the PR 5 overload machinery.
func (s *System) routePrefix(r *Request) *prefillInstance {
	shape := r.Model.ShardKVShape(s.cfg.TP)
	var matched int
	matched, s.prefixOnDevice = s.prefix.Match(r.Model.Name, r.promptHashes(s.prefix.BlockTokens()),
		r.InputTokens, s.prefixOnDevice)
	full := 0
	i := s.choose(r, decision.KindPrefillRouting, "cache-aware", false, len(s.prefills), func(i int) bid {
		p := s.prefills[i]
		if p.dead {
			return bid{}
		}
		penS, ok := s.marketPenalty(p.eng, p.eng.CostFor(r.mid).Switch())
		if !ok {
			return bid{eng: p.eng} // under notice / VRAM-starved; bestPrefill may waive later
		}
		pen := time.Duration(penS * float64(time.Second))
		load := p.load()
		score := load + pen
		onDevice := s.prefixOnDevice[p.tier]
		var saved, copyCost, credit time.Duration
		if matched > 0 {
			if full == 0 {
				full = r.InputTokens + r.Generated()
			}
			saved = p.eng.PrefillEstimate(r.mid, full) - p.eng.PrefillEstimate(r.mid, full-matched)
			hostBytes := shape.BytesPerToken() * int64(matched-onDevice)
			devBytes := shape.BytesPerToken() * int64(onDevice)
			copyCost = p.eng.CostFor(r.mid).Prof.PCIeCopy(hostBytes) + p.eng.CostFor(r.mid).OnDeviceCopy(devBytes)
			if benefit := saved - copyCost; benefit > 0 {
				credit = benefit
				score -= benefit
			}
		}
		b := bid{eng: p.eng, score: float64(score), ok: true}
		if s.dec != nil {
			b.terms = s.jot.Terms(
				decision.NsTerm("load", load),
				decision.NsTerm("market_penalty", pen),
				decision.Term{Name: "matched_tokens", Value: float64(matched)},
				decision.Term{Name: "on_device_tokens", Value: float64(onDevice)},
				decision.NsTerm("prefill_saved", saved),
				decision.NsTerm("copy_cost", copyCost),
				decision.NsTerm("prefix_credit", credit),
			)
		}
		return b
	})
	if i < 0 {
		return nil
	}
	return s.prefills[i]
}

// releasePrefix unpins the request's prefix-cache hit, if any. Safe on every
// terminal and retry path; the Hit itself is idempotent.
func (s *System) releasePrefix(r *Request) {
	if r.prefixHit != nil {
		r.prefixHit.Release(s.eng.Now())
		r.prefixHit = nil
	}
}

// PrefixCache exposes the global prefix cache (nil when disabled).
func (s *System) PrefixCache() *prefixcache.Cache { return s.prefix }

// dispatchDecode routes a freshly prefilled request to a decoding instance:
// prefer an instance already holding an open batch of the same model with
// KV room, else the least-loaded instance by work-list size (Algorithm 2
// line 2).
func (s *System) dispatchDecode(r *Request) {
	if r.terminal() {
		return
	}
	for _, d := range s.decodes {
		if !d.dead && s.marketAllows(d.eng.Name) && d.hasRoomInModelBatch(r) {
			if j := s.dec; j != nil {
				j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindDecodePlacement,
					Request: r.ID, Model: r.Model.Name, Instance: d.eng.Name,
					Outcome: d.eng.Name, Reason: "joined open batch"})
			}
			d.enqueue(r)
			return
		}
	}
	best := s.bestDecode(r)
	if best == nil {
		s.failRequest(r, "no surviving decode capacity")
		return
	}
	best.enqueue(r)
}

// bestDecode mirrors bestPrefill for the decoding pool: lowest work-list
// load plus the market's risk penalty, waiving exclusions only when every
// survivor is excluded.
func (s *System) bestDecode(r *Request) *decodeInstance {
	i := s.choose(r, decision.KindDecodePlacement, "", true, len(s.decodes), func(i int) bid {
		d := s.decodes[i]
		if d.dead {
			return bid{}
		}
		sw := d.eng.EffectiveSwitchCost(r.mid)
		pen, ok := s.marketPenalty(d.eng, sw)
		capab := s.marketCapability(d.eng.Name)
		load := float64(d.load())
		b := bid{eng: d.eng, score: load/capab + pen, ok: ok}
		if s.dec != nil {
			b.terms = s.jot.Terms(
				decision.Term{Name: "load", Value: load},
				decision.Term{Name: "capability", Value: capab},
				decision.Term{Name: "market_penalty", Value: pen},
				decision.NsTerm("switch_cost", sw),
			)
		}
		return b
	})
	if i < 0 {
		return nil
	}
	return s.decodes[i]
}

// ModelID returns the id of the named model if this system serves it.
func (s *System) ModelID(name string) (model.ID, bool) {
	id, ok := s.models[name]
	return id, ok
}

// sloFor returns the SLO governing requests to model id.
func (s *System) sloFor(id model.ID) slo.SLO { return s.slos[id] }

// modelName returns the name of model id.
func (s *System) modelName(id model.ID) string { return s.ids.Model(id).Name }

// tokenFeed collects the tokens one step of an instance produces, so the
// fleet ledger and the live SLO monitor each take one call per step instead
// of one per token. Each instance owns one and reuses its buffer: at most
// one step is in flight per instance.
type tokenFeed struct {
	dev    fleetobs.DeviceRef // the instance's fleet ledger entry
	n      int                // tokens emitted this step
	judged []slomon.TokenObs  // their SLO judgements (monitor on only)
}

// record stamps r's next token at `at` and adds it to the feed. recordToken
// no-ops on terminal requests, so a token is fed only if r took it.
func (f *tokenFeed) record(s *System, instance string, r *Request, at sim.Time) {
	n, prev := r.Generated(), r.lastToken
	r.recordToken(s, at)
	if r.Generated() == n {
		return
	}
	f.n++
	if s.mon == nil {
		return
	}
	// Filled in place: a record is too large to build and copy in.
	f.judged = append(f.judged, slomon.TokenObs{})
	o := &f.judged[len(f.judged)-1]
	o.Model, o.Request, o.Instance, o.Index = r.mid, r.ID, instance, n
	o.Arrival, o.Deadline, o.At, o.Prev = r.Arrival, s.sloFor(r.mid).Deadline(r.Arrival, n), at, prev
}

// flush feeds the step's tokens, all of model m and produced on the
// feed's device, to the observers and empties the feed. Goodput attribution
// reaches the fleet ledger whether or not the live monitor is on.
func (f *tokenFeed) flush(s *System, m model.ID) {
	s.fleet.AddTokens(f.dev, m, f.n)
	s.mon.ObserveTokens(f.judged)
	f.n, f.judged = 0, f.judged[:0]
}

// noteDroppedTokens feeds the monitor's windows r's never-generated tokens,
// the ones r's verdict counts as dropped. With all set (the failRequest
// path) every unproduced token counts: a dead request's remaining tokens
// can no longer meet any deadline. Otherwise (the Finalize path) only
// tokens whose deadline has passed by judged count.
func (s *System) noteDroppedTokens(r *Request, judged sim.Time, all bool) {
	if s.mon == nil {
		return
	}
	rslo := s.sloFor(r.mid)
	for i := r.Generated(); i < r.OutputTokens; i++ {
		dl := rslo.Deadline(r.Arrival, i)
		if !all && dl > judged {
			break // deadlines are monotone in i
		}
		s.mon.ObserveDropped(r.mid, r.ID, "", r.Arrival, dl, judged)
	}
}

// finishRequest records completion.
func (s *System) finishRequest(r *Request) {
	if r.terminal() {
		return // already failed or aborted; completion raced a terminal path
	}
	s.releasePrefix(r) // safety net; the prefill path normally released it
	s.obs.RequestDone(r.ID, s.eng.Now())
	s.completed++
	s.end(r, decision.OutcomeDone, "")
}

// end makes r terminal with outcome and does what every outcome shares: it
// stamps the finish, writes the terminal journal record, folds a live
// request's verdict and fires OnDone. A failed request's never-generated
// tokens count as dropped; an aborted request's tail, which its client
// walked away from, does not. An abort releases what the request holds
// after its terminal record, failures and completions before theirs, so
// the journal keeps one order for each.
func (s *System) end(r *Request, outcome, reason string) {
	r.Outcome = outcome
	r.finished = s.eng.Now()
	if j := s.dec; j != nil {
		j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindTerminal,
			Request: r.ID, Model: r.Model.Name, Outcome: outcome, Reason: reason})
	}
	dropped := 0
	switch outcome {
	case decision.OutcomeFailed:
		dropped = r.RemainingTokens()
	case decision.OutcomeAborted:
		s.releasePrefix(r)
		s.freeSeq(r)
	}
	if r.Seq != nil {
		// A served request's KV is already free: keep its transfer wait and
		// let the sequence go, so finished requests do not hold theirs.
		r.xferWait, r.Seq = r.Seq.TransferWait(), nil
	}
	if r.live {
		s.liveOpen--
		s.fold(r, s.judge(r, dropped))
	}
	if r.OnDone != nil {
		r.OnDone(r)
	}
}

// judge returns r's SLO verdict, the one its tokens built as they landed,
// with dropped never-generated tokens counted missed. A terminal request
// takes no more tokens, so its verdict no longer changes.
func (s *System) judge(r *Request, dropped int) slo.Verdict {
	v := r.judged.Verdict()
	v.Dropped = uint64(dropped)
	return v
}

// fold counts v, the verdict of r, in the tracker and r's service tier, and
// in the monitor unless the monitor took it when r failed.
func (s *System) fold(r *Request, v slo.Verdict) {
	s.tracker.Add(v)
	t := &s.tiers[r.Priority]
	t.Met += v.Met
	t.Missed += v.Missed + v.Dropped
	if !r.monitored {
		s.mon.ObserveVerdict(r.mid, v)
	}
}

// failRequest cleanly rejects a request the system can no longer serve
// (typically: every instance of a partition has crashed). The request is
// terminal; its KV is released; live submitters are notified through OnDone
// with the failed outcome, and the SLO observation records every
// unproduced token as a miss — graceful degradation must not launder
// violations.
func (s *System) failRequest(r *Request, reason string) {
	if r.terminal() {
		return
	}
	s.runs.cutFor(r)
	s.releasePrefix(r)
	s.freeSeq(r)
	r.FailReason = reason
	s.failed++
	s.cfg.Faults.CountRejected()
	if s.obs != nil {
		s.obs.Fault("", "rejected", r.ID+": "+reason, s.eng.Now())
	}
	if !r.live && s.mon != nil {
		// Batch requests are normally judged at Finalize, but a failed
		// request's misses must reach the live monitor when they happen:
		// the brownout controller reads burn rates mid-run, and deferring
		// the burst to the end of the run would hide the very overload it
		// is supposed to react to. The tracker keeps its Finalize-time
		// accounting: Finalize folds this verdict, with its own dropped
		// count, into the tracker and tier only.
		v := s.judge(r, r.RemainingTokens())
		s.mon.ObserveVerdict(r.mid, v)
		r.monitored = true
	}
	s.noteDroppedTokens(r, s.eng.Now(), true)
	s.end(r, decision.OutcomeFailed, reason)
}

// Abort cancels a request whose client has gone away (gateway disconnect).
// It is removed from every queue, its KV is released, and no further tokens
// are emitted — compute steps already in flight complete against the
// simulated hardware but their token for this request is discarded. OnDone
// fires with the aborted outcome, as for every other ending; an Abort of a
// request that has already ended does nothing and fires nothing.
func (s *System) Abort(r *Request) {
	if r == nil || r.terminal() {
		return
	}
	s.runs.cutFor(r)
	s.removeFromQueues(r)
	s.end(r, decision.OutcomeAborted, "client disconnect")
}

// removeFromQueues eagerly deletes r from prefill group queues and decode
// pending lists / batches. Lazy terminal checks at the dispatch and step
// paths catch anything in flight that this sweep cannot reach.
func (s *System) removeFromQueues(r *Request) {
	for _, p := range s.prefills {
		for _, g := range p.queue {
			for i, x := range g.reqs {
				if x == r {
					g.reqs = append(g.reqs[:i], g.reqs[i+1:]...)
					break
				}
			}
		}
	}
	for _, d := range s.decodes {
		for i, x := range d.pending {
			if x == r {
				d.pending = append(d.pending[:i], d.pending[i+1:]...)
				break
			}
		}
		for _, b := range d.workList {
			for i, x := range b.reqs {
				if x == r {
					b.reqs = append(b.reqs[:i], b.reqs[i+1:]...)
					break
				}
			}
		}
		if b := d.current; b != nil {
			for i, x := range b.reqs {
				if x == r {
					b.reqs = append(b.reqs[:i], b.reqs[i+1:]...)
					break
				}
			}
		}
	}
}

// Completed returns the number of fully served requests.
func (s *System) Completed() int { return s.completed }

// FailedRequests returns the number of cleanly rejected requests.
func (s *System) FailedRequests() int { return s.failed }

// Requests returns all submitted requests (live view).
func (s *System) Requests() []*Request { return s.requests }

// Finalize computes SLO attainment and the latency breakdown after the
// simulation has run. endTime bounds the judgement of never-generated
// tokens: a token whose deadline passed before endTime without being
// generated counts as missed, so overload cannot launder violations.
func (s *System) Finalize(endTime sim.Time) {
	for _, r := range s.requests {
		dropped := 0
		if r.Outcome != decision.OutcomeDone {
			rslo := s.sloFor(r.mid)
			for i := r.Generated(); i < r.OutputTokens; i++ {
				if rslo.Deadline(r.Arrival, i) <= endTime {
					dropped++
				}
			}
			if !r.monitored {
				s.noteDroppedTokens(r, endTime, false)
			}
		}
		s.fold(r, s.judge(r, dropped))
		// Breakdown (Fig. 14).
		if r.Generated() == 0 {
			s.breakdown.Add(metrics.PrefillWaiting, endTime-r.Arrival)
			continue
		}
		s.breakdown.Add(metrics.PrefillWaiting, r.prefillStart-r.Arrival)
		s.breakdown.Add(metrics.PrefillExecution, r.prefillEnd-r.prefillStart)
		end := r.finished
		if r.Outcome != decision.OutcomeDone {
			end = endTime
		}
		dataWait := r.transferWait()
		decodeSpan := end - r.prefillEnd
		wait := decodeSpan - r.decodeExec - dataWait
		if wait < 0 {
			wait = 0
		}
		s.breakdown.Add(metrics.DecodingWaiting, wait)
		s.breakdown.Add(metrics.DecodingExecution, r.decodeExec)
		s.breakdown.Add(metrics.DataOverhead, dataWait)
		s.kvSyncPerReq.AddDuration(dataWait)
	}
	var ctrl time.Duration
	for _, p := range s.prefills {
		ctrl += p.eng.KV().Stats().ControlTime
	}
	for _, d := range s.decodes {
		ctrl += d.eng.KV().Stats().ControlTime
	}
	s.breakdown.Add(metrics.ControlOverhead, ctrl)
}

// Attainment returns the token-level SLO attainment (call Finalize first).
func (s *System) Attainment() float64 { return s.tracker.Attainment() }

// TierTokens returns the judged tokens of each service tier, indexed by
// workload.Priority. They sum to the tracker's tokens.
func (s *System) TierTokens() [workload.NumPriorities]slo.Counts { return s.tiers }

// OverloadSheds returns overload shed counts by typed reason (a copy).
func (s *System) OverloadSheds() map[string]int {
	out := make(map[string]int, len(s.shedReasons))
	for k, v := range s.shedReasons {
		out[k] = v
	}
	return out
}

// Tracker exposes the SLO tracker.
func (s *System) Tracker() *slo.Tracker { return s.tracker }

// Monitor exposes the live SLO monitor (nil when monitoring is off).
func (s *System) Monitor() *slomon.Monitor { return s.mon }

// Breakdown exposes the latency breakdown (call Finalize first).
func (s *System) Breakdown() *metrics.Breakdown { return s.breakdown }

// KVSyncCDF returns per-request KV synchronization overhead samples
// (Fig. 15 right; call Finalize first).
func (s *System) KVSyncCDF() *metrics.CDF { return &s.kvSyncPerReq }

// SwitchLatencyCDF merges the exposed auto-scaling latency samples of all
// instances (Fig. 15 left).
func (s *System) SwitchLatencyCDF() *metrics.CDF {
	var all metrics.CDF
	for _, p := range s.prefills {
		st := p.eng.Stats()
		for _, pt := range st.SwitchLatency.Points(st.SwitchLatency.N()) {
			all.Add(pt[0])
		}
	}
	for _, d := range s.decodes {
		st := d.eng.Stats()
		for _, pt := range st.SwitchLatency.Points(st.SwitchLatency.N()) {
			all.Add(pt[0])
		}
	}
	return &all
}

// Engines returns all instance engines (prefill then decode), for
// utilization accounting.
func (s *System) Engines() []*engine.Engine {
	var out []*engine.Engine
	for _, p := range s.prefills {
		out = append(out, p.eng)
	}
	for _, d := range s.decodes {
		out = append(out, d.eng)
	}
	return out
}

// Collector returns the observability collector (nil when disabled).
func (s *System) Collector() *obs.Collector { return s.obs }

// CPUKVStats returns the unified CPU KV cache fragmentation stats (Fig. 16).
func (s *System) CPUKVStats() []memory.ClassStats { return s.cpuKV.Pool().Stats() }
