package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"aegaeon"
)

// layers are the program's optional layers, each switched through its
// public aegaeon.Config field.
type layers struct{ tracing, slomon, decisions, fleet, prefix bool }

func (l layers) apply(c aegaeon.Config) aegaeon.Config {
	c.Tracing, c.SLOMonitor, c.Decisions, c.FleetAccounting, c.PrefixRouting = l.tracing, l.slomon, l.decisions, l.fleet, l.prefix
	return c
}

// observers is every observer on: the gateway's default set plus the fleet
// ledger.
var observers = layers{tracing: true, slomon: true, decisions: true, fleet: true}

// mix is a batch traffic mix: the system a workload builds, the layers it
// turns on, and the trace it serves. gen draws the trace from the system's
// seeded randomness, so the same seed gives the same trace.
type mix struct {
	cfg  aegaeon.Config
	on   layers
	gen  func(*aegaeon.System) []aegaeon.Request
	arms func(*aegaeon.System) []aegaeon.Request // trace the per-layer arms serve; nil means gen's
	// shards is how many differently seeded traces an untraced run serves
	// (default 1); the metrics are medians across them.
	shards int
}

// The paper's testbed (§7.1): 16 H800s split 6 prefill + 10 decode, 40
// market models, Poisson ShareGPT arrivals at 0.1 req/s per model.
func paperConfig(seed int64) aegaeon.Config {
	return aegaeon.Config{GPU: "H800", PrefillGPUs: 6, DecodeGPUs: 10, NumModels: 40, Seed: seed}
}

func poisson(horizon time.Duration) func(*aegaeon.System) []aegaeon.Request {
	return func(s *aegaeon.System) []aegaeon.Request {
		return s.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: horizon})
	}
}

func (r *run) horizon(d time.Duration) time.Duration { return time.Duration(float64(d) * r.scale) }

// paper nearly only exercises the sim kernel, the core scheduler and the
// engine/gpu/kvcache data plane: observers, prefix cache and gateway are off.
// Its arms serve the observed horizon, so one round fits the budget.
func runPaper(r *run) error {
	return r.batch(mix{cfg: paperConfig(r.seed), gen: poisson(r.horizon(50 * time.Minute)),
		arms: poisson(r.horizon(20 * time.Minute))})
}

// observed is the paper config with every observer on; most of its wall
// time is observer work, which paper never does.
func runObserved(r *run) error {
	g := poisson(r.horizon(20 * time.Minute))
	return r.batch(mix{cfg: observers.apply(paperConfig(r.seed)), on: observers, gen: g})
}

// sessions is multi-turn chat with cache-aware prefix routing: each turn
// inserts a longer chain and re-reads earlier context, so the prefix cache
// sees writes beside reads. paper and observed never reach that layer. Its
// cost per request swings by a third from one seed to the next (geometric
// turn counts and long contexts drive device-tier evictions, each a scan of
// the index), so an untraced run serves four differently seeded traces and
// reports medians across them.
func runSessions(r *run) error {
	on := layers{prefix: true}
	g := func(s *aegaeon.System) []aegaeon.Request {
		return s.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.02, Horizon: r.horizon(3 * time.Minute),
			Workload: aegaeon.MultiTurn, SystemPromptTokens: 128})
	}
	return r.batch(mix{cfg: on.apply(paperConfig(r.seed)), on: on, gen: g, shards: 4})
}

func (r *run) batch(m mix) error {
	if r.traced() {
		return r.batchTraced(m)
	}
	return r.batchUntraced(m)
}

// rep is one fresh System serving one trace.
type rep struct {
	newDur, genDur time.Duration
	serve          interval
	report         aegaeon.Report
	events         uint64
	prompt, output int
	digest         string
	records        uint64
	reads          map[string]time.Duration // read-path costs, observer arms only
	speed          float64                  // host speed around the rep (serveReps only)
}

func (p rep) perReq(v float64) float64 { return v / float64(p.report.Requests) }

// serveOnce builds a System, generates the trace and serves it, timing each
// call and checking the report against the trace.
func (r *run) serveOnce(cfg aegaeon.Config, gen func(*aegaeon.System) []aegaeon.Request, parent int) (rep, error) {
	var p rep
	runtime.GC() // start every rep from the same heap state
	var sys *aegaeon.System
	var err error
	p.newDur = r.spans.timed("aegaeon.New", parent, func() { sys, err = aegaeon.New(cfg) })
	if err != nil {
		return p, err
	}
	var trace []aegaeon.Request
	p.genDur = r.spans.timed("GenerateTrace", parent, func() { trace = gen(sys) })
	for _, q := range trace {
		p.prompt += q.InputTokens
		p.output += q.OutputTokens
	}
	u := snapUsage()
	id := r.spans.open("Serve", parent)
	p.report, err = sys.Serve(trace)
	r.spans.close(id)
	p.serve = u.until(snapUsage())
	if err != nil {
		return p, fmt.Errorf("serve: %w", err)
	}
	p.events = sys.EventsProcessed()
	rp := p.report
	// Report.TTFTP50/P99 are left out: beyond 8192 requests they come from a
	// reservoir sampled with the unseeded global RNG, so they vary run to
	// run. The mean is exact.
	p.digest = fmt.Sprintf("events=%d virtual_ns=%d attainment=%v ttft_attainment=%v ttft_mean_ns=%d switches=%d tokens=%d",
		p.events, rp.VirtualDuration, rp.Attainment, rp.TTFTAttainment, rp.MeanTTFT, rp.Switches, rp.GeneratedTokens)
	r.attempted += rp.Requests
	r.failed += rp.Requests - rp.Completed
	if rp.Completed != rp.Requests || rp.Failed != 0 {
		r.problem("%d of %d requests completed, %d failed", rp.Completed, rp.Requests, rp.Failed)
	}
	if rp.GeneratedTokens != p.output {
		r.problem("generated %d tokens, the trace asks for %d", rp.GeneratedTokens, p.output)
	}
	if j := sys.Decisions(); j != nil {
		p.records = j.Total()
	}
	if r.traced() && cfg.Tracing && cfg.SLOMonitor && cfg.Decisions && cfg.FleetAccounting {
		p.reads = r.readPaths(sys, rp.VirtualDuration, parent)
	}
	return p, nil
}

// readPaths times the observers' public read paths: what /debug and
// /metrics pay per request.
func (r *run) readPaths(sys *aegaeon.System, now time.Duration, parent int) map[string]time.Duration {
	var err error
	reads := map[string]time.Duration{
		"slomon.snapshot_ms":     r.spans.timed("Monitor.Snapshot", parent, func() { sys.Monitor().Snapshot(now) }),
		"obs.perfetto_export_ms": r.spans.timed("WritePerfetto", parent, func() { err = sys.WritePerfetto(io.Discard) }),
	}
	if err != nil {
		r.problem("WritePerfetto: %v", err)
	}
	reads["decision.export_ms"] = r.spans.timed("WriteDecisions", parent, func() { err = sys.WriteDecisions(io.Discard) })
	if err != nil {
		r.problem("WriteDecisions: %v", err)
	}
	reads["fleetobs.snapshot_ms"] = r.spans.timed("Fleet.Snapshot", parent, func() { sys.Fleet().Snapshot(now) })
	return reads
}

// repeat calls fn at least min times, then again while another call is
// expected to finish within budget.
func repeat[T any](budget time.Duration, min int, fn func() (T, error)) ([]T, error) {
	var out []T
	start := time.Now()
	var last time.Duration
	for len(out) < min || time.Since(start)+last <= budget {
		t := time.Now()
		v, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		last = time.Since(t)
	}
	return out, nil
}

// sameDigest checks that every rep reproduced the first one's
// deterministic outputs.
func (r *run) sameDigest(what string, want string, reps []rep) {
	for i, p := range reps {
		if p.digest != want {
			r.problem("%s rep %d: %s, want %s", what, i, p.digest, want)
		}
	}
}

// setupReps is how many extra set-ups an untraced run times, so that setup_s
// is a median of several samples however few serve reps fit.
const setupReps = 9

// shardSeed is the seed of shard i of a run seeded with seed; shard 0 is the
// run's own seed.
func shardSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// serveReps serves m at least min times, then again while the budget allows,
// cycling through m's shards. Every rep of one shard must reproduce that
// shard's first rep. A speed probe runs before the first rep and after each
// one, and each rep's speed is from the probes on either side of it.
func (r *run) serveReps(m mix, budget time.Duration, min int) ([]rep, error) {
	shards := max(m.shards, 1)
	first := map[int]string{}
	i := 0
	before := r.probe()
	return repeat(budget, max(min, shards), func() (rep, error) {
		shard := i % shards
		i++
		cfg := m.cfg
		cfg.Seed = shardSeed(cfg.Seed, shard)
		p, err := r.serveOnce(cfg, m.gen, -1)
		if err != nil {
			return p, err
		}
		after := r.probe()
		p.speed = r.speed((before + after) / 2)
		before = after
		if want, ok := first[shard]; ok {
			r.sameDigest(fmt.Sprintf("shard %d", shard), want, []rep{p})
		} else {
			first[shard] = p.digest
		}
		return p, nil
	})
}

// cpuPerReq is the median over reps of Serve's CPU time per request, in
// reference-host milliseconds.
func cpuPerReq(reps []rep) float64 {
	return medianOf(reps, func(p rep) float64 { return p.perReq(ms(p.serve.cpu)) * p.speed })
}

// printReps shows each rep's raw numbers and the run's probe costs.
func (r *run) printReps(reps []rep) {
	fmt.Fprintf(r.out, "%d reps; requests/events/serve wall/serve cpu per rep:", len(reps))
	for _, p := range reps {
		fmt.Fprintf(r.out, " %d/%d/%.3fs/%.3fs", p.report.Requests, p.events, p.serve.wall.Seconds(), p.serve.cpu.Seconds())
	}
	fmt.Fprintf(r.out, "\nspeed probe cpu (reference %v):", probeRef)
	for _, p := range r.probes {
		fmt.Fprintf(r.out, " %.3fs", p.Seconds())
	}
	fmt.Fprintln(r.out)
}

func (r *run) batchUntraced(m mix) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		sys, err := aegaeon.New(m.cfg)
		if err != nil {
			return err
		}
		m.gen(sys)
		setups = append(setups, time.Since(t).Seconds())
	}
	reps, err := r.serveReps(m, r.budget, 3)
	if err != nil {
		return err
	}
	for _, p := range reps {
		setups = append(setups, (p.newDur + p.genDur).Seconds())
	}
	fmt.Fprintf(r.out, "setup median %.6fs\n", median(setups))
	r.printReps(reps)
	r.set("setup_s", "s", median(setups)*r.runSpeed())
	r.set("cpu_ms_per_req", "ms", cpuPerReq(reps))
	r.set("allocs_per_req", "count", medianOf(reps, func(p rep) float64 { return p.perReq(float64(p.serve.mallocs)) }))
	r.set("alloc_kb_per_req", "KiB", medianOf(reps, func(p rep) float64 { return p.perReq(float64(p.serve.bytes) / 1024) }))
	r.set("slo_attainment", "fraction", medianOf(reps, func(p rep) float64 { return p.report.Attainment }))
	r.set("ttft_p50_ms", "ms", medianOf(reps, func(p rep) float64 { return ms(p.report.TTFTP50) }))
	r.set("ttft_p99_ms", "ms", medianOf(reps, func(p rep) float64 { return ms(p.report.TTFTP99) }))
	return nil
}

// arm is one configuration of the traced run.
type arm struct {
	name string
	on   layers
	gen  func(*aegaeon.System) []aegaeon.Request
	reps []rep
}

func (a *arm) wall() float64 {
	return medianOf(a.reps, func(p rep) float64 { return p.serve.wall.Seconds() })
}

func (a *arm) allocsPerReq() float64 {
	return medianOf(a.reps, func(p rep) float64 { return p.perReq(float64(p.serve.mallocs)) })
}

// runArms serves m's arms trace once per arm per round, interleaving arms
// round-robin so machine drift spreads across them, for as many rounds as
// budget fits (at least one). Each arm is one Config toggle against the
// all-off arm. It returns the arm serving m's own configuration and trace,
// and every arm by name.
func (r *run) runArms(m mix, budget time.Duration) (*arm, map[string]*arm, error) {
	arms := []*arm{
		{name: "off"},
		{name: "tracing", on: layers{tracing: true}},
		{name: "slomon", on: layers{slomon: true}},
		{name: "decisions", on: layers{decisions: true}},
		{name: "fleet", on: layers{fleet: true}},
		{name: "observers", on: observers},
		{name: "prefix", on: layers{prefix: true}},
	}
	same := m.arms == nil
	byName := map[string]*arm{}
	var base *arm
	for _, a := range arms {
		a.gen = m.arms
		if same {
			a.gen = m.gen
		}
		byName[a.name] = a
		if same && a.on == m.on {
			base = a
		}
	}
	if base == nil {
		base = &arm{name: "base", on: m.on, gen: m.gen}
		arms = append([]*arm{base}, arms...)
	}
	_, err := repeat(budget, 1, func() (struct{}, error) {
		for _, a := range arms {
			id := r.spans.open("arm "+a.name, -1)
			p, err := r.serveOnce(a.on.apply(m.cfg), a.gen, id)
			r.spans.close(id)
			if err != nil {
				return struct{}{}, fmt.Errorf("arm %s: %w", a.name, err)
			}
			a.reps = append(a.reps, p)
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Observers must not perturb scheduling: each observer arm reproduces the
	// all-off arm's deterministic outputs exactly.
	off := byName["off"].reps[0].digest
	for _, a := range arms {
		want := a.reps[0].digest
		if !a.on.prefix && (a.name != "base" || same) {
			want = off
		}
		r.sameDigest("arm "+a.name, want, a.reps)
	}
	for _, a := range arms {
		fmt.Fprintf(r.out, "arm %-9s %d reps, serve wall median %.3fs\n", a.name, len(a.reps), a.wall())
	}
	return base, byName, nil
}

// setLayerCosts reports each optional layer's cost from the arms.
func (r *run) setLayerCosts(a map[string]*arm) {
	off, tr, sm, dc, fl, ob, px := a["off"], a["tracing"], a["slomon"], a["decisions"], a["fleet"], a["observers"], a["prefix"]
	// The monitor implies the collector, so its cost is over the tracing arm.
	r.set("obs.cost_s", "s", tr.wall()-off.wall())
	r.set("slomon.cost_s", "s", sm.wall()-tr.wall())
	r.set("decision.cost_s", "s", dc.wall()-off.wall())
	r.set("fleetobs.cost_s", "s", fl.wall()-off.wall())
	r.set("obs.allocs_per_req", "count", tr.allocsPerReq()-off.allocsPerReq())
	r.set("slomon.allocs_per_req", "count", sm.allocsPerReq()-tr.allocsPerReq())
	r.set("decision.allocs_per_req", "count", dc.allocsPerReq()-off.allocsPerReq())
	r.set("fleetobs.allocs_per_req", "count", fl.allocsPerReq()-off.allocsPerReq())
	r.set("slomon.overhead_x", "x", sm.wall()/off.wall())
	r.set("observers.overhead_x", "x", ob.wall()/off.wall())
	r.set("decision.records", "count", float64(dc.reps[0].records))
	for _, name := range []string{"slomon.snapshot_ms", "obs.perfetto_export_ms", "decision.export_ms", "fleetobs.snapshot_ms"} {
		r.set(name, "ms", medianOf(ob.reps, func(p rep) float64 { return ms(p.reads[name]) }))
	}
	st := px.reps[0].report.Prefix
	r.set("prefixcache.hit_ratio", "fraction", st.HitRatio())
	r.set("prefixcache.saved_ratio", "fraction", st.SavedRatio())
	r.set("prefixcache.lookups", "count", float64(st.Lookups))
	r.set("prefixcache.inserts", "count", float64(st.Inserts))
	r.set("prefixcache.device_evictions", "count", float64(st.DeviceEvictions))
	r.set("prefixcache.host_evictions", "count", float64(st.HostEvictions))
	r.set("prefixcache.promotions", "count", float64(st.Promotions))
	// The cache changes scheduling, so the two arms fire different events;
	// both counts stand beside the cost.
	r.set("prefixcache.cost_s", "s", px.wall()-off.wall())
	r.set("prefixcache.on_events", "count", float64(px.reps[0].events))
	r.set("prefixcache.off_events", "count", float64(off.reps[0].events))
}

func (r *run) batchTraced(m mix) error {
	base, arms, err := r.runArms(m, r.budget)
	if err != nil {
		return err
	}
	b := base.reps
	p := b[0]
	ev := float64(p.events)
	r.set("workload.generate_ms", "ms", medianOf(b, func(p rep) float64 { return ms(p.genDur) }))
	r.set("workload.requests", "count", float64(p.report.Requests))
	r.set("workload.prompt_tokens", "count", float64(p.prompt))
	r.set("workload.output_tokens", "count", float64(p.output))
	r.set("aegaeon.new_ms", "ms", medianOf(b, func(p rep) float64 { return ms(p.newDur) }))
	r.set("sim.events", "count", ev)
	r.set("sim.events_per_s", "1/s", ev/base.wall())
	r.set("sim.speedup", "x", p.report.VirtualDuration.Seconds()/base.wall())
	r.set("runtime.allocs_per_event", "count", medianOf(b, func(p rep) float64 { return float64(p.serve.mallocs) })/ev)
	r.set("runtime.alloc_bytes_per_event", "B", medianOf(b, func(p rep) float64 { return float64(p.serve.bytes) })/ev)
	r.set("runtime.gc_cycles", "count", medianOf(b, func(p rep) float64 { return float64(p.serve.gcCycles) }))
	r.set("runtime.gc_pause_ms", "ms", medianOf(b, func(p rep) float64 { return ms(p.serve.gcPause) }))
	r.set("core.completed", "count", float64(p.report.Completed))
	r.set("core.generated_tokens", "count", float64(p.report.GeneratedTokens))
	r.set("core.switches", "count", float64(p.report.Switches))
	r.set("core.ttft_attainment", "fraction", p.report.TTFTAttainment)
	r.setLayerCosts(arms)
	return nil
}
