// Package aegaeon is a Go reproduction of "Aegaeon: Effective GPU Pooling
// for Concurrent LLM Serving on the Market" (SOSP '25): a multi-model LLM
// serving system that auto-scales models at token granularity, running on a
// deterministic discrete-event simulation of the GPU substrate.
//
// The public API builds serving systems, generates market-style workloads,
// serves them in virtual time, and reports per-token SLO attainment:
//
//	sys, _ := aegaeon.New(aegaeon.Config{
//	    GPU: "H800", PrefillGPUs: 2, DecodeGPUs: 6, NumModels: 20,
//	})
//	trace := sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: 5 * time.Minute})
//	report, _ := sys.Serve(trace)
//	fmt.Printf("attainment: %.1f%%\n", 100*report.Attainment)
//
// The internal packages implement the paper's full stack: the token-level
// scheduler (Algorithms 1–2), preemptive auto-scaling with component reuse,
// explicit memory management and fine-grained KV-cache synchronization
// (§5), the ServerlessLLM/MuxServe baselines, and one experiment runner per
// table and figure in §7.
package aegaeon

import (
	"fmt"
	"io"
	"strings"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/baselines"
	"aegaeon/internal/core"
	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/latency"
	"aegaeon/internal/market"
	"aegaeon/internal/metrics"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// Model re-exports the model descriptor type.
type Model = model.Model

// SLO re-exports the (TTFT, TBT) target pair.
type SLO = slo.SLO

// Request re-exports the workload request type.
type Request = workload.Request

// FaultStats re-exports the fault-injection and recovery counters.
type FaultStats = fault.Stats

// Dataset re-exports the length-distribution interface.
type Dataset = workload.Dataset

// PrefixStats re-exports the global prefix cache's counters: lookups, hits,
// prefill tokens saved, per-tier residency and evictions, promotions.
type PrefixStats = prefixcache.Stats

// DefaultSLO returns the paper's production targets: TTFT 10 s, TBT 100 ms.
func DefaultSLO() SLO { return slo.Default() }

// ShareGPT and variants re-export the synthetic datasets of §7.1.
func ShareGPT() Dataset    { return workload.ShareGPT() }
func ShareGPTIx2() Dataset { return workload.ShareGPTIx2() }
func ShareGPTOx2() Dataset { return workload.ShareGPTOx2() }

// Catalog returns the built-in model catalog (Table 1 models and friends).
func Catalog() []*Model { return model.Catalog() }

// MarketModels returns n market models in the paper's primary 6–14B range.
func MarketModels(n int) []*Model { return model.MarketMix(n) }

// SmallModels returns n models in the 6–8B range — the mix that fits every
// built-in market device class, including the 24 GB consumer tiers.
func SmallModels(n int) []*Model { return model.SmallMix(n) }

// Config configures an Aegaeon serving system.
type Config struct {
	// GPU selects the hardware profile: "H800" (default), "A10", or "H20".
	GPU string
	// TP is the tensor-parallel degree per instance (default 1).
	TP int
	// PrefillGPUs and DecodeGPUs partition the pool (§4.1). Defaults: 6+10.
	PrefillGPUs int
	DecodeGPUs  int
	// Models to serve. If empty, NumModels market models are generated.
	Models    []*Model
	NumModels int
	// SLO targets; zero value uses DefaultSLO.
	SLO SLO
	// Seed fixes the simulation's randomness (default 1).
	Seed int64
	// DisableOptimizations turns off the §5 auto-scaling optimizations
	// (useful for ablation; production config leaves this false).
	DisableOptimizations bool
	// Tracing enables the observability collector: per-request span
	// timelines, per-device-engine op timelines, and switch-cost
	// attribution, exportable as Perfetto-loadable Chrome trace JSON via
	// WritePerfetto. Off by default; the disabled path adds no overhead.
	Tracing bool
	// SLOMonitor enables the live SLO monitor: sliding-window per-model and
	// fleet-wide attainment, multi-window burn-rate alert states, and
	// per-cause attribution of every missed token (joined against the span
	// timelines, so enabling it also turns on the observability collector).
	// The final windowed state is reported in Report.SLO; the live monitor
	// itself is reachable via Monitor.
	SLOMonitor bool
	// Overload enables overload control: a brownout controller coupled to
	// the live SLO monitor's burn-rate alerts steps through degradation
	// levels (shed low-priority → shrink decode lengths → freeze cold-model
	// loads → admit nothing), a deadline-aware reaper sheds doomed queued
	// requests mid-wait, and prefill grouping becomes priority-then-slack
	// aware. Implies SLOMonitor (the controller is driven by its alert
	// states). Service tiers come from each Request's Priority field — see
	// AssignPriorities. The controller's arc and shed accounting land in
	// the Report.
	Overload bool
	// PrefixRouting enables the global prefix cache with cache-aware prefill
	// dispatch. Prompt prefixes computed by earlier requests are indexed
	// (chunked block-aligned hashing, so partial matches hit) over a host
	// tier in the unified CPU KV pool with per-instance device copies earned
	// by reuse, and prefill skips matched tokens, charging the tier-dependent
	// copy instead. Requests are steered toward the instance whose device
	// tier holds their longest prefix, as a bounded credit against queue
	// depth — never an override of load balance or admission control.
	// Multi-turn and shared-system-prompt traces (see TraceSpec.Workload)
	// are where it pays.
	PrefixRouting bool
	// Decisions enables the decision-provenance journal: every policy
	// decision — admission, overload ladder transitions, shedding, prefill
	// routing (with per-candidate score terms), decode placement, preemptive
	// switches, KV and prefix-cache eviction victims, spot evacuation
	// ordering — records its evidence, stamped with virtual time and linked
	// to request IDs. The journal is exportable via WriteDecisions and
	// reachable live via Decisions; records are deterministic functions of
	// the seed. Off by default; the disabled path is allocation-free.
	Decisions bool
	// FleetAccounting enables the fleet utilization ledger: every simulated
	// GPU-second is classified into one exhaustive, mutually exclusive state
	// (idle, prefill, decode, each §5 switch stage, weight-load, KV
	// transfer, faulted) under a hard conservation invariant — per-device
	// state integrals sum exactly to wall time — with goodput tokens, KV
	// pool watermarks, and a cost integral attributed per device and model.
	// The final snapshot lands in Report.Fleet; the live ledger is reachable
	// via Fleet. Off by default; the disabled path adds no overhead.
	FleetAccounting bool
	// Faults is a fault schedule injected during Serve, as a comma-separated
	// spec of "kind@at[+dur][*factor][:target]" items — e.g.
	// "crash@40s:decode0,xfer@60s+5s,fetchslow@90s+30s*4". Kinds: crash,
	// xfer, fetchfail, fetchslow, partition, storeslow (the store kinds need
	// the cluster proxy and are rejected here), plus the spot kinds reclaim
	// ("reclaim@45s+5s:decode1" — preemption notice, grace, hard revocation;
	// needs Config.Market) and throttle ("throttle@60s+30s*4:decode0" —
	// thermal slowdown). Crashed instances are detected after a fixed delay,
	// then their in-flight requests recover onto survivors: host-resident KV
	// resumes decoding, the rest recompute via prefill. Empty disables fault
	// injection entirely.
	Faults string
	// Market enables the spot-market fleet model: per-device market classes
	// (see MarketClasses), spot price traces feeding the fleet cost
	// integral, preemption notices with KV evacuation ahead of the reclaim
	// deadline, and capability scoring. Implies FleetAccounting (class
	// economics join against the ledger's cost and goodput integrals). The
	// final market snapshot — preemption records, evacuated-vs-lost KV
	// bytes, per-class $-per-1k-tokens — lands in Report.Market.
	Market bool
	// MarketClasses is a comma-separated device-class list cycled across the
	// pool in build order, e.g. "H800,A10,RTX4090"; the built-in classes are
	// H800, H20, A10, RTX4090 and RTX3090.
	// Empty means a homogeneous H800 fleet. Each instance runs its class's
	// hardware profile end to end — compute, PCIe, and a VRAM split sized
	// for the class — so every model must fit the smallest class (the 24 GB
	// consumer tiers fit SmallModels; MarketModels needs ≥48 GB).
	MarketClasses string
	// MarketSpot activates spot pricing and reclaim risk: per-device price
	// traces walk on the simulation clock, and placement discounts devices
	// by their class's preemption hazard. Off = flat on-demand rates (the
	// reliable arm).
	MarketSpot bool
	// MarketNaive turns preemption-aware placement and KV evacuation OFF
	// while keeping the market model on: reclaim notices are ignored until
	// the revocation fires, losing everything GPU-resident to the crash
	// path. This is the spot-naive baseline arm the market bench compares
	// against; production spot configs leave it false.
	MarketNaive bool
}

// System is a ready-to-serve Aegaeon deployment in virtual time.
type System struct {
	cfg      Config
	eng      *sim.Engine
	sys      *core.System
	models   []*Model
	served   bool
	sched    []fault.Fault
	injector *fault.Injector
	parts    *assemble.Parts // the optional subsystems; nil fields are off
}

// New builds a system.
func New(cfg Config) (*System, error) {
	if cfg.GPU == "" {
		cfg.GPU = "H800"
	}
	prof, err := latency.ProfileByName(cfg.GPU)
	if err != nil {
		return nil, err
	}
	if cfg.TP < 1 {
		cfg.TP = 1
	}
	if cfg.PrefillGPUs == 0 {
		cfg.PrefillGPUs = 6
	}
	if cfg.DecodeGPUs == 0 {
		cfg.DecodeGPUs = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	models := cfg.Models
	if len(models) == 0 {
		n := cfg.NumModels
		if n <= 0 {
			n = 8
		}
		models = model.MarketMix(n)
	}
	if (cfg.SLO == SLO{}) {
		cfg.SLO = slo.Default()
	}
	opts := engine.AllOptimizations()
	if cfg.DisableOptimizations {
		opts = engine.Unoptimized()
	}
	se := sim.NewEngine(cfg.Seed)
	var flt *fault.Faults
	var sched []fault.Fault
	if cfg.Faults != "" {
		if sched, err = fault.ParseSpec(cfg.Faults); err != nil {
			return nil, err
		}
		flt = fault.New(se, cfg.Seed)
	}
	parts, err := assemble.Build(se, assemble.Spec{
		Tracing:         cfg.Tracing,
		SLOMonitor:      cfg.SLOMonitor,
		Overload:        cfg.Overload,
		PrefixRouting:   cfg.PrefixRouting,
		FleetAccounting: cfg.FleetAccounting,
		Market:          cfg.Market,
		Decisions:       cfg.Decisions,
		MarketClasses:   cfg.MarketClasses,
		MarketSpot:      cfg.MarketSpot,
		MarketNaive:     cfg.MarketNaive,
		Seed:            cfg.Seed,
		Models:          models,
		TP:              cfg.TP,
		Faults:          flt,
	})
	if err != nil {
		return nil, fmt.Errorf("aegaeon: %w", err)
	}
	coreCfg := core.Config{
		Prof:       prof,
		TP:         cfg.TP,
		Opts:       opts,
		NumPrefill: cfg.PrefillGPUs,
		NumDecode:  cfg.DecodeGPUs,
		Models:     models,
		SLO:        cfg.SLO,
	}
	parts.Core(&coreCfg)
	sys := core.NewSystem(se, coreCfg)
	return &System{cfg: cfg, eng: se, sys: sys, models: models, sched: sched, parts: parts}, nil
}

// Models returns the models the system serves.
func (s *System) Models() []*Model { return s.models }

// WorkloadKind selects a synthetic arrival pattern.
type WorkloadKind string

// Workload kinds. The session-structured kinds (multi-turn chat, agentic
// tool-call loops, shared-system-prompt tenants) re-send growing or shared
// prefixes and are what the prefix cache accelerates.
const (
	Poisson      WorkloadKind = "poisson"
	MultiTurn    WorkloadKind = "multiturn"
	Agentic      WorkloadKind = "agentic"
	SharedPrompt WorkloadKind = "sharedprompt"
)

// TraceSpec describes a synthetic workload.
type TraceSpec struct {
	// RatePerModel is the per-model arrival rate in req/s — of requests for
	// Poisson and SharedPrompt, of sessions for MultiTurn, of tasks for
	// Agentic.
	RatePerModel float64
	// Horizon is the trace length.
	Horizon time.Duration
	// Dataset defaults to ShareGPT.
	Dataset Dataset
	// Workload selects the arrival pattern; empty means Poisson.
	Workload WorkloadKind
	// SystemPromptTokens sets the shared per-model prefix length for the
	// session workloads. Defaults: 128 (MultiTurn), 512 (Agentic), 2048
	// (SharedPrompt); ignored for Poisson.
	SystemPromptTokens int
}

// GenerateTrace synthesizes a workload for the system's models. Unknown
// Workload kinds panic: the set is closed and checked at call sites.
func (s *System) GenerateTrace(spec TraceSpec) []Request {
	ds := spec.Dataset
	if ds == nil {
		ds = workload.ShareGPT()
	}
	names := make([]string, len(s.models))
	for i, m := range s.models {
		names[i] = m.Name
	}
	rng := s.eng.Rand()
	switch spec.Workload {
	case Poisson, "":
		return workload.PoissonTrace(rng, names, spec.RatePerModel, spec.Horizon, ds)
	case MultiTurn:
		sys := spec.SystemPromptTokens
		if sys <= 0 {
			sys = 128
		}
		return workload.MultiTurnTrace(rng, names, spec.RatePerModel, spec.Horizon, ds,
			workload.MultiTurnConfig{SystemPromptTokens: sys})
	case Agentic:
		return workload.AgenticTrace(rng, names, spec.RatePerModel, spec.Horizon, ds,
			workload.AgenticConfig{SystemPromptTokens: spec.SystemPromptTokens})
	case SharedPrompt:
		sys := spec.SystemPromptTokens
		if sys <= 0 {
			sys = 2048
		}
		return workload.SharedPrefixTrace(rng, names, spec.RatePerModel, spec.Horizon, sys, ds)
	default:
		panic(fmt.Sprintf("aegaeon: unknown workload kind %q", spec.Workload))
	}
}

// Report summarizes a serving run.
type Report struct {
	// Attainment is the token-level SLO attainment in [0,1] (§2.1).
	Attainment float64
	// TTFTAttainment is the fraction of first tokens within the TTFT target.
	TTFTAttainment float64
	// MeanTTFT is the average time to first token; TTFTP50/P99 its
	// percentiles.
	MeanTTFT time.Duration
	TTFTP50  time.Duration
	TTFTP99  time.Duration
	// Completed is the number of fully served requests.
	Completed int
	// Requests is the number submitted.
	Requests int
	// VirtualDuration is the simulated time the run covered.
	VirtualDuration time.Duration
	// SwitchP50/P99 are exposed preemptive auto-scaling latencies.
	SwitchP50, SwitchP99 time.Duration
	// Switches counts preemptive model scale-ups across instances.
	Switches uint64
	// Failed counts requests that ended cleanly rejected (only possible
	// under fault injection, e.g. when every decode instance is dead).
	Failed int
	// FaultsInjected is how many scheduled faults fired; Faults holds the
	// full fault and recovery accounting. Both are zero without Config.Faults.
	FaultsInjected int
	Faults         FaultStats
	// SLO is the live monitor's final snapshot — windowed attainment,
	// burn-rate alert states, and missed-token cause counters — taken at the
	// end of the run. Nil without Config.SLOMonitor.
	SLO *slomon.Snapshot
	// GeneratedTokens counts tokens actually produced — the run's real
	// throughput numerator, unaffected by shed requests whose unproduced
	// tokens are judged as SLO misses.
	GeneratedTokens int
	// OverloadLevel is the brownout controller's final degradation level
	// ("normal" … "admit_none"); OverloadTransitions counts level changes
	// during the run; Sheds breaks overload-shed requests down by typed
	// reason; AttainmentByPriority splits token attainment by service tier.
	// Zero/nil without Config.Overload.
	OverloadLevel        string
	OverloadTransitions  int
	Sheds                map[string]int
	AttainmentByPriority map[string]float64
	// Prefix is the global prefix cache's final counters — hit ratio, prefill
	// tokens saved, tier residency and evictions. Nil without
	// Config.PrefixRouting.
	Prefix *PrefixStats
	// Fleet is the fleet utilization ledger's final snapshot: per-device
	// state integrals summing exactly to wall time, goodput tokens per
	// GPU-second per model, switch-overhead ratio, KV watermarks, and the
	// GPU-hours/cost integral. Its ConservationErrors field is empty in any
	// correct build. Nil without Config.FleetAccounting.
	Fleet *fleetobs.Snapshot
	// Market is the spot-market model's final snapshot: per-device market
	// state and price, preemption records with evacuated-vs-lost KV byte
	// accounting, and per-class economics ($-per-1k-tokens joined against
	// the fleet ledger). Nil without Config.Market.
	Market *market.Snapshot
}

// Serve runs the trace to completion in virtual time and reports. A System
// is single-use: build a fresh one per run.
func (s *System) Serve(trace []Request) (Report, error) {
	if s.served {
		return Report{}, fmt.Errorf("aegaeon: system already served a trace; build a new one")
	}
	s.served = true
	if err := s.sys.Submit(trace); err != nil {
		return Report{}, err
	}
	// Price traces must be bounded or the event loop never drains: run them
	// past the last arrival with slack for the tail to decode.
	horizon := 2 * time.Minute
	if len(trace) > 0 {
		horizon += trace[len(trace)-1].Arrival
	}
	s.parts.Market.Start(horizon)
	if len(s.sched) > 0 {
		s.injector = fault.NewInjector(s.eng, sysSurface{s}, s.parts.Faults, s.sched)
		s.injector.Arm()
	}
	s.eng.Run()
	s.sys.Finalize(s.eng.Now())
	var switches uint64
	for _, e := range s.sys.Engines() {
		switches += e.Stats().Switches
	}
	cdf := s.sys.SwitchLatencyCDF()
	rep := Report{
		Attainment:      s.sys.Attainment(),
		TTFTAttainment:  s.sys.Tracker().TTFTAttainment(),
		MeanTTFT:        s.sys.Tracker().MeanTTFT(),
		TTFTP50:         s.sys.Tracker().TTFTQuantile(0.5),
		TTFTP99:         s.sys.Tracker().TTFTQuantile(0.99),
		Completed:       s.sys.Completed(),
		Requests:        len(trace),
		VirtualDuration: s.eng.Now(),
		Switches:        switches,
		Failed:          s.sys.FailedRequests(),
		Faults:          s.parts.Faults.Snapshot(),
		SLO:             s.sys.Monitor().Snapshot(s.eng.Now()),
		Fleet:           s.parts.Fleet.Snapshot(s.eng.Now()),
	}
	rep.Market = s.parts.Market.Snapshot(s.eng.Now(), rep.Fleet)
	if s.injector != nil {
		rep.FaultsInjected = s.injector.Injected()
		if errs := s.injector.Errors(); len(errs) > 0 {
			return rep, fmt.Errorf("aegaeon: %d faults failed to inject, first: %w", len(errs), errs[0])
		}
	}
	if cdf.N() > 0 {
		rep.SwitchP50 = time.Duration(cdf.Quantile(0.5) * float64(time.Second))
		rep.SwitchP99 = time.Duration(cdf.Quantile(0.99) * float64(time.Second))
	}
	for _, r := range s.sys.Requests() {
		rep.GeneratedTokens += r.Generated()
	}
	if pc := s.sys.PrefixCache(); pc != nil {
		st := pc.Stats()
		rep.Prefix = &st
	}
	if s.parts.Overload != nil {
		snap := s.parts.Overload.Snapshot()
		rep.OverloadLevel = snap.Level
		rep.OverloadTransitions = len(snap.Transitions)
		rep.Sheds = s.sys.OverloadSheds()
		rep.AttainmentByPriority = make(map[string]float64, workload.NumPriorities)
		for p, c := range s.sys.TierTokens() {
			rep.AttainmentByPriority[workload.Priority(p).String()] = c.Attainment()
		}
	}
	return rep, nil
}

// AssignPriorities stamps a service-tier mix onto a trace in place using the
// system's seeded randomness: highFrac of requests become high priority,
// lowFrac low, the rest normal. Overload control sheds lower tiers first.
func (s *System) AssignPriorities(trace []Request, highFrac, lowFrac float64) {
	workload.AssignPriorities(s.eng.Rand(), trace, highFrac, lowFrac)
}

// Monitor returns the live SLO monitor, or nil unless the system was built
// with Config.SLOMonitor.
func (s *System) Monitor() *slomon.Monitor { return s.sys.Monitor() }

// Fleet returns the fleet utilization ledger, or nil unless the system was
// built with Config.FleetAccounting.
func (s *System) Fleet() *fleetobs.Ledger { return s.parts.Fleet }

// Decisions returns the decision-provenance journal, or nil unless the system
// was built with Config.Decisions.
func (s *System) Decisions() *decision.Journal { return s.parts.Decisions }

// WriteDecisions exports the decision journal as versioned, deterministic
// JSON: the flat record ring in sequence order plus every retained
// per-request chain. `aegaeon-trace -mode why` reads this format.
func (s *System) WriteDecisions(w io.Writer) error {
	if s.parts.Decisions == nil {
		return fmt.Errorf("aegaeon: decision journal disabled; build the system with Config.Decisions")
	}
	return s.parts.Decisions.WriteJSON(w)
}

// Snapshot renders the named snapshot schema at the run's clock: "slo",
// "fleet", "market" or "why", the reports aegaeon-sim -report names. It
// returns nil when the system does not carry that subsystem.
func (s *System) Snapshot(name string) any {
	for _, sc := range assemble.Schemas {
		if sc.Name == name && sc.Has(s.parts) {
			return sc.Snapshot(s.parts, s.eng.Now())
		}
	}
	return nil
}

// EventsProcessed returns how many discrete events the simulation kernel has
// fired — the numerator of the kernel's events/sec self-metric.
func (s *System) EventsProcessed() uint64 { return s.eng.Processed() }

// DecodeSteps returns how many decoding iterations the decode instances have
// started, and how many runs (compute ops of back-to-back iterations) they
// ran them as. Each run is one kernel event, so steps minus runs is the
// events coalescing saved.
func (s *System) DecodeSteps() (steps, runs uint64) {
	for _, e := range s.sys.Engines() {
		st := e.Stats()
		steps += st.DecodeSteps
		runs += st.DecodeRuns
	}
	return steps, runs
}

// Breakdown returns the request latency breakdown after Serve (Fig. 14).
func (s *System) Breakdown() *metrics.Breakdown { return s.sys.Breakdown() }

// Collector returns the observability collector, or nil unless the system
// was built with Config.Tracing.
func (s *System) Collector() *obs.Collector { return s.sys.Collector() }

// WritePerfetto exports everything the collector captured — request span
// trees, per-device-engine op timelines, and stage-attributed model
// switches — as Chrome trace-event JSON loadable at ui.perfetto.dev. When the
// decision journal is also on, each journaled decision appears as an instant
// event on its request's track.
func (s *System) WritePerfetto(w io.Writer) error {
	c := s.sys.Collector()
	if c == nil {
		return fmt.Errorf("aegaeon: tracing disabled; build the system with Config.Tracing")
	}
	var ann []obs.RequestInstant
	if dec := s.parts.Decisions; dec != nil {
		for _, ch := range dec.Chains() {
			for _, rec := range ch.Records {
				args := map[string]any{"outcome": rec.Outcome}
				if rec.Reason != "" {
					args["reason"] = rec.Reason
				}
				if rec.Instance != "" {
					args["instance"] = rec.Instance
				}
				ann = append(ann, obs.RequestInstant{
					Request: ch.Request,
					Name:    "decision:" + rec.Kind,
					At:      rec.At,
					Args:    args,
				})
			}
		}
	}
	return c.PerfettoTrace().Write(w, ann)
}

// crashDetectionDelay emulates the proxy's health-lease detection window
// when running single-system (no cluster in front): a crashed instance's
// orphans sit undispatched this long before recovery begins.
const crashDetectionDelay = time.Second

// sysSurface adapts a single System to the fault injector. Targets may be
// cluster-style "deployment/instance" names, so specs carry over from the
// cluster harness. Store faults (partition, storeslow) need the cluster
// proxy's metadata store and are rejected.
type sysSurface struct{ s *System }

var _ fault.Surface = sysSurface{}

// instance strips a cluster-style "deployment/" prefix from a target.
func (sysSurface) instance(target string) string {
	if _, inst, ok := strings.Cut(target, "/"); ok {
		return inst
	}
	return target
}

// Crash fail-stops the instance and recovers its orphans after the
// emulated detection delay.
func (ss sysSurface) Crash(target string) error {
	name := ss.instance(target)
	if err := ss.s.sys.CrashInstance(name); err != nil {
		return err
	}
	ss.s.eng.After(crashDetectionDelay, func() { ss.s.sys.RecoverOrphansOf(name) })
	return nil
}

func (ss sysSurface) Reclaim(target string, grace sim.Time) error {
	return ss.s.sys.ReclaimInstance(ss.instance(target), grace)
}

func (ss sysSurface) Throttle(target string, factor float64, d sim.Time) error {
	return ss.s.sys.ThrottleInstance(ss.instance(target), factor, d)
}

func (sysSurface) PartitionStore(sim.Time) error {
	return fmt.Errorf("no metadata store in single-system mode; partition faults need the cluster gateway")
}

func (sysSurface) SlowStore(float64, sim.Time) error {
	return fmt.Errorf("no metadata store in single-system mode; storeslow faults need the cluster gateway")
}

// Baseline identifies a comparison system.
type Baseline string

// Comparison baselines (§7.1).
const (
	ServerlessLLM     Baseline = "ServerlessLLM"
	ServerlessLLMPlus Baseline = "ServerlessLLM+"
	MuxServe          Baseline = "MuxServe"
)

// ServeBaseline serves the trace on a baseline system over the same GPU
// count (prefill+decode, undivided) and returns its report.
func (s *System) ServeBaseline(b Baseline, trace []Request) (Report, error) {
	prof, err := latency.ProfileByName(s.cfg.GPU)
	if err != nil {
		return Report{}, err
	}
	se := sim.NewEngine(s.cfg.Seed)
	gpus := s.cfg.PrefillGPUs + s.cfg.DecodeGPUs
	var srv baselines.Server
	var trk *slo.Tracker
	switch b {
	case ServerlessLLM, ServerlessLLMPlus:
		sys := baselines.NewSLLM(se, baselines.SLLMConfig{
			Prof: prof, TP: s.cfg.TP, GPUs: gpus, Models: s.models,
			SLO: s.cfg.SLO, SJF: b == ServerlessLLMPlus,
		})
		srv, trk = sys, sys.Tracker()
	case MuxServe:
		sys := baselines.NewMux(se, baselines.MuxConfig{
			Prof: prof, TP: s.cfg.TP, GPUs: gpus, Models: s.models, SLO: s.cfg.SLO,
		})
		srv, trk = sys, sys.Tracker()
	default:
		return Report{}, fmt.Errorf("aegaeon: unknown baseline %q", b)
	}
	if err := srv.Submit(trace); err != nil {
		return Report{}, err
	}
	se.Run()
	srv.Finalize(se.Now())
	return Report{
		Attainment:      srv.Attainment(),
		TTFTAttainment:  trk.TTFTAttainment(),
		MeanTTFT:        trk.MeanTTFT(),
		TTFTP50:         trk.TTFTQuantile(0.5),
		TTFTP99:         trk.TTFTQuantile(0.99),
		Completed:       srv.Completed(),
		Requests:        len(trace),
		VirtualDuration: se.Now(),
	}, nil
}
