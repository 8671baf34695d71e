// Package chaos is the fault-injection harness: it runs a cluster under a
// seeded fault schedule — instance crashes, transfer and fetch failures,
// metadata-store partitions — with the proxy's health-lease failover active,
// then audits the end state against the recovery invariants: every request
// reaches exactly one terminal state, completed streams are gap-free, no KV
// is leaked on surviving instances, and fault accounting is consistent.
// Schedules are deterministic given a seed, so a chaos run is a reproducible
// regression, not a flake generator.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/cluster"
	"aegaeon/internal/decision"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// Config parameterizes one chaos run.
type Config struct {
	Seed int64
	// Models is the market size (default 4, small models).
	Models int
	// Rate is the Poisson arrival rate in requests/s (default 0.15).
	Rate float64
	// Horizon is the arrival window (default 120s); faults land inside it
	// and the run continues until the system drains.
	Horizon time.Duration
	// Spec is an explicit fault schedule ("kind@at[+dur][*factor][:target]",
	// comma-separated). Empty draws RandomFaults faults from the seed.
	Spec string
	// RandomFaults is the number of randomly drawn faults when Spec is empty
	// (default 4).
	RandomFaults int
	// Overload enables overload control for the run: a brownout controller
	// on the cluster, priorities on the trace (highFrac/lowFrac), and the
	// deadline reaper — so fault schedules are audited with load shedding
	// active, not just failover.
	Overload bool
	// Prefix enables the global prefix cache (with cache-aware routing) and
	// switches the workload to multi-turn chat over a shared system prompt,
	// so crash recovery is audited with prefix pins, device copies, and
	// eviction in play. Rate is reinterpreted as turns/s per model (sessions
	// arrive at Rate/3, averaging ~3 turns each).
	Prefix bool
	// MarketClasses is the device-class cycle for the spot-market model
	// (default homogeneous "H800"). Every chaos run carries a market so the
	// reclaim/throttle fault kinds are injectable by random schedules;
	// heterogeneous pools are opt-in per run.
	MarketClasses string
	// Spot activates spot price traces and risk-priced placement.
	Spot bool
	// MarketNaive disables preemption-aware placement and KV evacuation, so
	// reclaims are audited through the bare crash path (the naive arm).
	MarketNaive bool
}

const (
	// numPrefill and numDecode size the single deployment, so
	// single-instance crashes have somewhere to fail over to.
	numPrefill, numDecode = 2, 2
	// highFrac and lowFrac set the priority mix when Overload is on.
	highFrac, lowFrac = 0.2, 0.3
)

func (c *Config) defaults() {
	if c.Models <= 0 {
		c.Models = 4
	}
	if c.Rate <= 0 {
		c.Rate = 0.15
	}
	if c.Horizon <= 0 {
		c.Horizon = 120 * time.Second
	}
	if c.RandomFaults <= 0 {
		c.RandomFaults = 4
	}
}

// Result summarizes a chaos run.
type Result struct {
	Spec      string // the schedule that ran, formatted
	Requests  int
	Completed int
	Failed    int
	Injected  int
	// InjectErrs holds every fault the schedule could not inject, such as
	// a crash naming no instance.
	InjectErrs []error
	Failovers  int
	// Violations lists every broken invariant (empty on a clean run).
	Violations []string
}

// Run executes one seeded chaos scenario and audits the invariants.
func Run(cfg Config) (*Result, error) {
	res, _, err := run(cfg)
	return res, err
}

// run is Run, also returning the drained cluster, whose observers the
// tests snapshot at its final instant.
func run(cfg Config) (*Result, *cluster.Cluster, error) {
	cfg.defaults()
	se := sim.NewEngine(cfg.Seed)
	models := model.SmallMix(cfg.Models)
	// Every run carries the fleet ledger (the market implies it), so
	// GPU-second conservation is audited under crashes; the decision
	// journal, so provenance coverage is audited; and a market, so random
	// schedules can draw reclaim/throttle faults. The default market —
	// homogeneous H800, no spot pricing, aware placement — leaves crash-only
	// schedules' placement unchanged.
	parts, err := assemble.Build(se, assemble.Spec{
		Overload:      cfg.Overload,
		PrefixRouting: cfg.Prefix,
		Market:        true,
		Decisions:     true,
		MarketClasses: cfg.MarketClasses,
		MarketSpot:    cfg.Spot,
		MarketNaive:   cfg.MarketNaive,
		Seed:          cfg.Seed,
		Models:        models,
		TP:            1,
		Faults:        fault.New(se, cfg.Seed+1),
	})
	if err != nil {
		return nil, nil, err
	}
	clCfg := cluster.Config{
		Prof: latency.H800(),
		SLO:  slo.Default(),
		Deployments: []cluster.DeploymentConfig{{
			Name: "chaos", TP: 1,
			NumPrefill: numPrefill, NumDecode: numDecode,
			Models: models,
		}},
	}
	parts.Cluster(&clCfg)
	c, err := cluster.New(se, clCfg)
	if err != nil {
		return nil, nil, err
	}
	// The token-order audit reads every request's token log.
	for _, d := range c.Deployments() {
		d.System.LogTokens()
	}
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	var trace []workload.Request
	if cfg.Prefix {
		trace = workload.MultiTurnTrace(rng, names, cfg.Rate/3, cfg.Horizon,
			workload.ShareGPT(), workload.MultiTurnConfig{MeanTurns: 3, SystemPromptTokens: 128})
	} else {
		trace = workload.PoissonTrace(rng, names, cfg.Rate, cfg.Horizon, workload.ShareGPT())
	}
	if cfg.Overload {
		workload.AssignPriorities(rng, trace, highFrac, lowFrac)
	}
	if err := c.Submit(trace); err != nil {
		return nil, nil, err
	}

	sched, err := schedule(cfg, c, names)
	if err != nil {
		return nil, nil, err
	}
	in := fault.NewInjector(se, c, parts.Faults, sched)
	in.Arm()

	// Rates feed the fleet cost integral from t=0; price ticks only run when
	// Spot is on, bounded so the event loop drains.
	parts.Market.Start(2*cfg.Horizon + 60*time.Second)
	se.At(0, c.StartHealth)
	// Long enough for failover of the latest possible crash; serving
	// continues past it if the tail is still draining.
	se.At(2*cfg.Horizon+60*time.Second, c.StopHealth)
	se.Run()
	c.Finalize(se.Now())

	res := &Result{
		Spec:       fault.FormatSpec(sched),
		Requests:   len(trace),
		Completed:  c.Completed(),
		Failed:     c.Deployments()[0].System.FailedRequests(),
		Injected:   in.Injected(),
		InjectErrs: in.Errors(),
		Failovers:  c.Failovers(),
		Violations: VerifyInvariants(c),
	}
	return res, c, nil
}

// schedule resolves the fault schedule for a run: the explicit spec, or a
// seeded random draw over the cluster's instances and models.
func schedule(cfg Config, c *cluster.Cluster, names []string) ([]fault.Fault, error) {
	if cfg.Spec != "" {
		return fault.ParseSpec(cfg.Spec)
	}
	var instances []string
	for _, d := range c.Deployments() {
		for _, n := range d.System.InstanceNames() {
			instances = append(instances, d.Name+"/"+n)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	return fault.RandomSchedule(rng, cfg.Horizon, instances, names, cfg.RandomFaults), nil
}

// VerifyInvariants audits a drained cluster against the recovery guarantees.
// Call after the simulation has run to completion. Token order is audited
// only on systems whose token log was on (core.System.LogTokens).
func VerifyInvariants(c *cluster.Cluster) []string {
	var v []string
	for _, d := range c.Deployments() {
		sys := d.System
		if n := sys.OrphanedRequests(); n != 0 {
			v = append(v, fmt.Sprintf("%s: %d orphans never recovered", d.Name, n))
		}
		done, failed := 0, 0
		for _, r := range sys.Requests() {
			switch r.Outcome {
			case decision.OutcomeDone:
				done++
				if r.Generated() != r.OutputTokens {
					v = append(v, fmt.Sprintf("request %s completed with %d/%d tokens (lost or duplicated)",
						r.ID, r.Generated(), r.OutputTokens))
				}
			case decision.OutcomeFailed:
				failed++
				if r.FailReason == "" {
					v = append(v, fmt.Sprintf("request %s failed without a reason", r.ID))
				}
			case decision.OutcomeAborted:
				// Client-cancelled requests are a valid terminal state; their
				// KV leak check happens below like everyone's.
			default:
				v = append(v, fmt.Sprintf("request %s reached no terminal state", r.ID))
			}
			for i := 1; i < len(r.TokenTimes); i++ {
				if r.TokenTimes[i] < r.TokenTimes[i-1] {
					v = append(v, fmt.Sprintf("request %s: token %d emitted before token %d", r.ID, i, i-1))
					break
				}
			}
		}
		if done != sys.Completed() || failed != sys.FailedRequests() {
			v = append(v, fmt.Sprintf("%s: terminal counts drifted (done %d vs %d, failed %d vs %d)",
				d.Name, done, sys.Completed(), failed, sys.FailedRequests()))
		}
		// With the prefix cache on, a drained pool is not empty: it holds
		// exactly the cache's accounted residency — anything beyond that is a
		// leak, anything short a double-free.
		pc := sys.PrefixCache()
		for _, e := range sys.Engines() {
			if !sys.AliveNamed(e.Name) {
				continue // a dead instance's VRAM died with it
			}
			var wantGPU int64
			if pc != nil {
				wantGPU = pc.DeviceResidentBytes(e.Name)
			}
			if used := e.KV().GPUCache.Pool().UsedBytes(); used != wantGPU {
				v = append(v, fmt.Sprintf("%s/%s GPU KV pool holds %d bytes, prefix cache accounts %d (leak or double-free)",
					d.Name, e.Name, used, wantGPU))
			}
		}
		// The unified CPU KV cache is shared; any engine's manager sees it.
		if es := sys.Engines(); len(es) > 0 {
			var wantCPU int64
			if pc != nil {
				wantCPU = pc.HostResidentBytes()
			}
			pool := es[0].KV().CPUCache.Pool()
			if used := pool.UsedBytes(); used != wantCPU {
				v = append(v, fmt.Sprintf("%s CPU KV pool holds %d bytes, prefix cache accounts %d (leak or double-free)",
					d.Name, used, wantCPU))
			}
			// Every transfer has completed, so the move list must be empty.
			if n := pool.BlockedBlocks(); n != 0 {
				v = append(v, fmt.Sprintf("%s CPU KV pool still blocks %d blocks after drain (move list never unblocked them)",
					d.Name, n))
			}
		}
		if pc != nil {
			// Refcounts must return to steady state: nothing in flight, so
			// nothing pinned, and the index's internal accounting must audit
			// clean even after crashes dropped device tiers mid-chain.
			if n := pc.PinnedEntries(); n != 0 {
				v = append(v, fmt.Sprintf("%s: %d prefix entries still pinned after drain", d.Name, n))
			}
			for _, bad := range pc.CheckConsistency() {
				v = append(v, fmt.Sprintf("%s: prefix cache: %s", d.Name, bad))
			}
		}
	}
	v = append(v, verifyFleet(c)...)
	v = append(v, verifyMarket(c)...)
	v = append(v, verifyDecisions(c)...)
	v = append(v, verifyControlPlane(c)...)
	return v
}

// verifyControlPlane audits the metadata store after a chaos run: the
// cluster's watch-fed route mirror must have converged to the store's
// routing table.
func verifyControlPlane(c *cluster.Cluster) []string {
	var v []string
	routes := c.Routes()
	mirror := c.RouteMirror()
	for m, want := range routes {
		if got, ok := mirror[m]; !ok || got != want {
			v = append(v, fmt.Sprintf("store: route mirror diverged for %s (mirror %q, store %q)", m, got, want))
		}
	}
	for m := range mirror {
		if _, ok := routes[m]; !ok {
			v = append(v, fmt.Sprintf("store: route mirror holds %s but the store does not", m))
		}
	}
	return v
}

// verifyDecisions audits decision-provenance coverage after a chaos run:
// every terminal request's chain must run from an admission record to a
// terminal record matching the request's actual end state, and every
// retained shed, eviction, or evacuation record must carry the evidence
// terms that explain it. No-op when the cluster was built without a journal.
func verifyDecisions(c *cluster.Cluster) []string {
	j := c.Decisions()
	if j == nil {
		return nil
	}
	var states []decision.RequestState
	for _, d := range c.Deployments() {
		for _, r := range d.System.Requests() {
			// Non-terminal requests are already flagged by the terminal-state
			// audit above; the journal has nothing to say about them.
			if o := r.Outcome; o != "" {
				states = append(states, decision.RequestState{ID: r.ID, Outcome: o})
			}
		}
	}
	return j.CheckCoverage(states)
}

// verifyMarket audits the spot-market accounting after a chaos run: the
// cumulative counters reconcile against the per-preemption audit trail, every
// revoked device is actually dead (and ineligible for placement), and no
// evacuation transfer is left pending — each one either landed before the
// deadline or its request went through the crash path. No-op when the cluster
// was built without a market.
func verifyMarket(c *cluster.Cluster) []string {
	mkt := c.Market()
	if mkt == nil {
		return nil
	}
	var v []string
	st := mkt.Stats()
	recs := mkt.Records()
	if st.Preemptions != len(recs) {
		v = append(v, fmt.Sprintf("market: %d preemptions counted but %d records kept", st.Preemptions, len(recs)))
	}
	var evac, lost, rehomed int64
	revoked, missed := 0, 0
	for _, r := range recs {
		evac += r.EvacuatedKVBytes
		lost += r.LostKVBytes
		rehomed += r.RehomedPrefixBytes
		if r.RevokedAtS >= 0 {
			revoked++
			if deadlineS := r.NoticeAtS + r.GraceS; r.RevokedAtS < deadlineS-1e-9 {
				v = append(v, fmt.Sprintf("market: %s revoked at %.3fs, before its %.3fs deadline", r.Device, r.RevokedAtS, deadlineS))
			}
		} else if r.LostKVBytes > 0 {
			v = append(v, fmt.Sprintf("market: %s lost %d KV bytes without being revoked", r.Device, r.LostKVBytes))
		}
		if r.LostKVBytes > 0 {
			missed++
		}
	}
	if revoked != st.Revocations {
		v = append(v, fmt.Sprintf("market: %d revocations counted but %d records closed", st.Revocations, revoked))
	}
	if missed != st.DeadlinesMissed {
		v = append(v, fmt.Sprintf("market: %d deadlines-missed counted but %d records lost KV", st.DeadlinesMissed, missed))
	}
	if evac != st.EvacuatedKVBytes || lost != st.LostKVBytes || rehomed != st.RehomedPrefixBytes {
		v = append(v, fmt.Sprintf("market: byte totals drifted from records (evac %d vs %d, lost %d vs %d, rehomed %d vs %d)",
			st.EvacuatedKVBytes, evac, st.LostKVBytes, lost, st.RehomedPrefixBytes, rehomed))
	}
	for _, d := range c.Deployments() {
		if n := d.System.EvacuatingRequests(); n != 0 {
			v = append(v, fmt.Sprintf("market: %s still has %d evacuation transfers pending after drain", d.Name, n))
		}
	}
	for _, r := range recs {
		if r.RevokedAtS < 0 {
			continue
		}
		alive := false
		for _, d := range c.Deployments() {
			for _, name := range d.System.InstanceNames() {
				if name == r.Device && d.System.AliveNamed(name) {
					alive = true
				}
			}
		}
		if alive {
			v = append(v, fmt.Sprintf("market: revoked device %s is still alive", r.Device))
		}
		if mkt.Eligible(r.Device) {
			v = append(v, fmt.Sprintf("market: revoked device %s is still placement-eligible", r.Device))
		}
	}
	return v
}

// verifyFleet audits the fleet ledger's GPU-second accounting after a chaos
// run: the conservation invariant holds at the drained instant (state
// integrals sum exactly to wall time on every device, so crashes neither
// double-count nor lose GPU-seconds), and every crashed instance is parked
// in the faulted state with nonzero faulted time. No-op when the cluster was
// built without a ledger.
func verifyFleet(c *cluster.Cluster) []string {
	fl := c.Fleet()
	if fl == nil {
		return nil
	}
	var v []string
	now := c.VirtualNow()
	snap := fl.Snapshot(now)
	for _, bad := range snap.ConservationErrors {
		v = append(v, "fleet ledger: "+bad)
	}
	byName := map[string]*fleetobs.DeviceSnapshot{}
	for i := range snap.Devices {
		byName[snap.Devices[i].Device] = &snap.Devices[i]
	}
	for _, d := range c.Deployments() {
		for _, name := range d.System.InstanceNames() {
			ds := byName[name]
			if ds == nil {
				v = append(v, fmt.Sprintf("fleet ledger: instance %s/%s never registered", d.Name, name))
				continue
			}
			if d.System.AliveNamed(name) {
				if ds.Faulted {
					v = append(v, fmt.Sprintf("fleet ledger: live instance %s/%s marked faulted", d.Name, name))
				}
				continue
			}
			if !ds.Faulted {
				v = append(v, fmt.Sprintf("fleet ledger: crashed instance %s/%s not marked faulted", d.Name, name))
			}
			if ds.Current != fleetobs.Faulted.String() {
				v = append(v, fmt.Sprintf("fleet ledger: crashed instance %s/%s charged to %s, want faulted",
					d.Name, name, ds.Current))
			}
			if ds.StatesS[fleetobs.Faulted.String()] <= 0 {
				v = append(v, fmt.Sprintf("fleet ledger: crashed instance %s/%s accumulated no faulted time",
					d.Name, name))
			}
		}
	}
	return v
}
