// Command aegaeon-sim runs one Aegaeon (or baseline) serving simulation
// from flags and prints the SLO report.
//
// Examples:
//
//	aegaeon-sim -models 40 -rps 0.1 -horizon 5m
//	aegaeon-sim -models 40 -rps 0.1 -system serverlessllm
//	aegaeon-sim -gpu A10 -models 8 -prefill 2 -decode 2 -tbt-scale 2
//	aegaeon-sim -models 8 -rps 0.15 -horizon 2m -report slo,fleet,why -report-dir out
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"aegaeon"
	"aegaeon/internal/assemble"
	"aegaeon/internal/decision"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/market"
	"aegaeon/internal/slomon"
)

// printSLOReport renders the live monitor's final snapshot: fleet-wide
// windowed attainment and burn rates, the alert state, quantiles, and the
// missed-token cause breakdown.
func printSLOReport(s *slomon.Snapshot) {
	fmt.Printf("--- live SLO monitor (objective %.2f%%) ---\n", 100*s.Objective)
	for _, w := range s.Fleet.Windowed {
		fmt.Printf("slo %-4s window   %.2f%% attainment (burn %.2f, %.1f tok/s goodput, %d met / %d missed)\n",
			w.Window, 100*w.Attainment, w.BurnRate, w.GoodputTPS, w.Met, w.Missed)
	}
	fmt.Printf("slo alert         %s (budget remaining %.1f%%, %d transitions)\n",
		s.Fleet.Alert.State, 100*s.Fleet.ErrorBudgetRemaining, len(s.Fleet.Alert.Transitions))
	if s.Fleet.TTFT.Count > 0 {
		fmt.Printf("slo windowed TTFT p50 %v p99 %v\n",
			secs(s.Fleet.TTFT.P50S), secs(s.Fleet.TTFT.P99S))
	}
	if s.Fleet.TBT.Count > 0 {
		fmt.Printf("slo windowed TBT  p50 %v p99 %v\n",
			secs(s.Fleet.TBT.P50S), secs(s.Fleet.TBT.P99S))
	}
	type kv struct {
		cause string
		n     uint64
	}
	var causes []kv
	for c, n := range s.Fleet.Causes {
		if n > 0 {
			causes = append(causes, kv{c, n})
		}
	}
	sort.Slice(causes, func(i, j int) bool {
		if causes[i].n != causes[j].n {
			return causes[i].n > causes[j].n
		}
		return causes[i].cause < causes[j].cause
	})
	for _, c := range causes {
		fmt.Printf("slo miss cause    %-18s %d\n", c.cause, c.n)
	}
	paged := 0
	for _, m := range s.Models {
		if m.Alert.State != "ok" {
			paged++
		}
	}
	fmt.Printf("slo models        %d tracked, %d in warn/page\n", len(s.Models), paged)
}

func secs(v float64) time.Duration {
	return time.Duration(v * float64(time.Second)).Round(time.Millisecond)
}

// printFleetReport renders the fleet utilization ledger's final snapshot:
// the fleet rollup, each device's state decomposition, and per-model
// goodput economics. The fleet row's check, run after the print, fails the
// run on a conservation violation.
func printFleetReport(s *fleetobs.Snapshot) {
	fmt.Printf("--- fleet utilization ledger (%d devices, %.1f GPU-s) ---\n",
		s.Fleet.Devices, s.Fleet.GPUSeconds)
	fmt.Printf("fleet             busy %.1f%%, switch overhead %.2f%%, idle %.1fs, faulted %.1fs\n",
		100*s.Fleet.BusyFraction, 100*s.Fleet.SwitchRatio, s.Fleet.IdleS, s.Fleet.FaultedS)
	fmt.Printf("fleet economics   %d goodput tokens (%.1f tok/busy-GPU-s), %.4f GPU-h, $%.4f\n",
		s.Fleet.Tokens, s.Fleet.TokensPerBusyGPUSecond, s.Fleet.GPUHours, s.Fleet.CostDollars)
	for _, d := range s.Devices {
		status := ""
		if d.Faulted {
			status = " [faulted]"
		}
		fmt.Printf("device %-10s busy %5.1f%% switch %5.2f%% (prefill %.1fs decode %.1fs load %.1fs kv %.1fs)%s\n",
			d.Device, 100*d.BusyFraction, 100*d.SwitchRatio,
			d.StatesS["prefill"], d.StatesS["decode"],
			d.StatesS["weight-load"], d.StatesS["kv-transfer"], status)
	}
	for _, m := range s.Models {
		fmt.Printf("model  %-16s %8d tokens, %6.1f compute-s (%.1f%% occupancy, %.1f tok/GPU-s)\n",
			m.Model, m.Tokens, m.ComputeS, 100*m.OccupancyShare, m.TokensPerGPUSecond)
	}
}

// printMarketReport renders the spot-market snapshot: the per-device market
// state, the preemption audit trail with evacuated-vs-lost KV accounting, and
// per-class unit economics joined against the fleet ledger.
func printMarketReport(s *market.Snapshot) {
	mode := "reliable (flat on-demand rates)"
	if s.Spot {
		mode = "spot-aware"
		if !s.Aware {
			mode = "spot-naive"
		}
	}
	fmt.Printf("--- spot market (%s, %d devices, %d price ticks) ---\n",
		mode, len(s.Devices), s.Stats.PriceTicks)
	fmt.Printf("market preemption %d notices, %d revocations, %d deadlines missed, %d throttles\n",
		s.Stats.Preemptions, s.Stats.Revocations, s.Stats.DeadlinesMissed, s.Stats.Throttles)
	fmt.Printf("market KV bytes   %.1fMB evacuated, %.1fMB lost, %.1fMB prefix re-homed\n",
		float64(s.Stats.EvacuatedKVBytes)/(1<<20), float64(s.Stats.LostKVBytes)/(1<<20),
		float64(s.Stats.RehomedPrefixBytes)/(1<<20))
	for _, d := range s.Devices {
		status := ""
		if !d.Eligible {
			status = " [ineligible]"
		}
		if d.UnderNotice {
			status += " [under notice]"
		}
		if d.Revoked {
			status = " [revoked]"
		}
		fmt.Printf("market %-10s %-8s $%5.2f/h  capability %.2f%s\n",
			d.Device, d.Class, d.RateDollarsPerHour, d.CapabilityScore, status)
	}
	for _, c := range s.Classes {
		fmt.Printf("class  %-8s %d devices, mean $%5.2f/h, $%.4f spent, %d tokens, $%.4f/1k tokens, %d preemptions\n",
			c.Class, c.Devices, c.MeanRate, c.CostDollars, c.Tokens,
			c.DollarsPer1KTokens, c.Preemptions)
	}
}

// printWhyReport renders the decision journal's summary: how many decisions
// were journaled, how many request chains are retained, and the kind/outcome
// counters — the at-a-glance answer to "what did the schedulers decide, and
// how often". The full evidence (inputs, candidate scores, chains) goes to
// why.json under -report-dir.
func printWhyReport(j *decision.Journal) {
	fmt.Printf("--- decision journal (%d decisions, %d request chains) ---\n",
		j.Total(), j.TrackedRequests())
	for _, c := range j.Counts() {
		fmt.Printf("decision %-20s %-22s %d\n", c.Kind, c.Outcome, c.N)
	}
}

// reports turn on and print the snapshot schemas -report selects, by
// schema name; every schema is one. export, when set, writes the
// snapshot's JSON through the facade's own exporter. The report loop runs
// in assemble.Schemas order.
var reports = map[string]struct {
	enable func(*aegaeon.Config)
	print  func(*aegaeon.System, *aegaeon.Report)
	export func(*aegaeon.System, io.Writer) error
}{
	"slo": {func(c *aegaeon.Config) { c.SLOMonitor = true },
		func(_ *aegaeon.System, rep *aegaeon.Report) { printSLOReport(rep.SLO) }, nil},
	"fleet": {func(c *aegaeon.Config) { c.FleetAccounting = true },
		func(_ *aegaeon.System, rep *aegaeon.Report) { printFleetReport(rep.Fleet) }, nil},
	"market": {func(c *aegaeon.Config) { c.Market = true },
		func(_ *aegaeon.System, rep *aegaeon.Report) { printMarketReport(rep.Market) }, nil},
	"why": {func(c *aegaeon.Config) { c.Decisions = true },
		func(sys *aegaeon.System, _ *aegaeon.Report) { printWhyReport(sys.Decisions()) },
		(*aegaeon.System).WriteDecisions},
}

// parseReports parses -report's comma-separated names into the set of
// schemas to report.
func parseReports(list string) (map[string]bool, error) {
	var valid []string
	for _, s := range assemble.Schemas {
		valid = append(valid, s.Name)
	}
	on := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("-report: unknown report %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		on[name] = true
	}
	return on, nil
}

// checkReport renders a report's snapshot as indented JSON, writes it to
// dir/<name>.json when dir is set (the fleet report also writes
// fleet.csv), and checks it: a file that fails is still written.
func checkReport(dir string, s assemble.Schema, sys *aegaeon.System) error {
	snap := sys.Snapshot(s.Name)
	var buf bytes.Buffer
	var err error
	if export := reports[s.Name].export; export != nil {
		err = export(sys, &buf)
	} else {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(snap)
	}
	if err != nil {
		return err
	}
	data := buf.Bytes()
	if dir != "" {
		path := filepath.Join(dir, s.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("%-17s %s\n", s.Name+" snapshot", path)
		if fleet, ok := snap.(*fleetobs.Snapshot); ok {
			path = filepath.Join(dir, "fleet.csv")
			if err := os.WriteFile(path, []byte(fleet.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("fleet csv         %s\n", path)
		}
	}
	return s.Check(data)
}

// kernelMetrics are the simulation kernel's self-metrics for one run — the
// substrate's own throughput, independent of what the simulated fleet did.
// Schema 2 added the decode steps and the runs they ran as: each run is one
// kernel event, so their ratio is how far decode turns coalesced.
type kernelMetrics struct {
	SchemaVersion   int     `json:"schema_version"`
	Events          uint64  `json:"events"`
	DecodeSteps     uint64  `json:"decode_steps"`
	DecodeRuns      uint64  `json:"decode_runs"`
	EventsPerSec    float64 `json:"events_per_sec"`
	Requests        int     `json:"requests"`
	RequestsPerSec  float64 `json:"requests_per_sec"`
	TokensGenerated int     `json:"tokens_generated"`
	WallSeconds     float64 `json:"wall_seconds"`
	VirtualSeconds  float64 `json:"virtual_seconds"`
	SpeedupFactor   float64 `json:"speedup_factor"`
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	NumGC           uint32  `json:"num_gc"`
}

// writeKernelMetrics measures and writes the kernel self-metrics JSON.
func writeKernelMetrics(path string, sys *aegaeon.System, rep *aegaeon.Report, wall time.Duration) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wallS := wall.Seconds()
	km := kernelMetrics{
		SchemaVersion:   2,
		Events:          sys.EventsProcessed(),
		Requests:        rep.Requests,
		TokensGenerated: rep.GeneratedTokens,
		WallSeconds:     wallS,
		VirtualSeconds:  rep.VirtualDuration.Seconds(),
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		NumGC:           ms.NumGC,
	}
	km.DecodeSteps, km.DecodeRuns = sys.DecodeSteps()
	if wallS > 0 {
		km.EventsPerSec = float64(km.Events) / wallS
		km.RequestsPerSec = float64(km.Requests) / wallS
		km.SpeedupFactor = km.VirtualSeconds / wallS
	}
	data, err := json.MarshalIndent(km, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parsePriorityMix parses "high,low" fractions (e.g. "0.2,0.3"). Empty means
// an all-normal trace.
func parsePriorityMix(s string) (high, low float64, err error) {
	if s == "" {
		return 0, 0, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf(`-priority-mix wants "high,low" fractions, got %q`, s)
	}
	if high, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, 0, fmt.Errorf("-priority-mix high fraction: %v", err)
	}
	if low, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
		return 0, 0, fmt.Errorf("-priority-mix low fraction: %v", err)
	}
	if high < 0 || low < 0 || high+low > 1 {
		return 0, 0, fmt.Errorf("-priority-mix fractions must be non-negative and sum to <= 1, got %v+%v", high, low)
	}
	return high, low, nil
}

func main() {
	var (
		gpu        = flag.String("gpu", "H800", "GPU profile: H800, A10, H20")
		tp         = flag.Int("tp", 1, "tensor parallel degree")
		prefill    = flag.Int("prefill", 6, "prefill instances")
		decode     = flag.Int("decode", 10, "decoding instances")
		nModels    = flag.Int("models", 40, "number of market models")
		rps        = flag.Float64("rps", 0.1, "per-model arrival rate (req/s)")
		horizon    = flag.Duration("horizon", 5*time.Minute, "trace length")
		dataset    = flag.String("dataset", "sharegpt", "sharegpt, sharegpt-ix2, sharegpt-ox2")
		system     = flag.String("system", "aegaeon", "aegaeon, serverlessllm, serverlessllm+, muxserve")
		seed       = flag.Int64("seed", 1, "random seed")
		sloScale   = flag.Float64("slo-scale", 1, "scale both TTFT and TBT targets")
		ttftScale  = flag.Float64("ttft-scale", 1, "scale the TTFT target")
		tbtScale   = flag.Float64("tbt-scale", 1, "scale the TBT target")
		unopt      = flag.Bool("unoptimized", false, "disable the §5 auto-scaling optimizations")
		perfetto   = flag.String("perfetto", "", "write a Perfetto-loadable trace JSON to this file (aegaeon system only)")
		faults     = flag.String("faults", "", `fault schedule: "kind@at[+dur][*factor][:target]", comma-separated — e.g. "crash@40s:decode0,fetchslow@60s+30s*4" (aegaeon system only)`)
		overloadOn = flag.Bool("overload", false, "enable overload control: SLO-coupled brownout, deadline-aware shedding, priority-aware prefill (aegaeon system only)")
		prioMix    = flag.String("priority-mix", "", `service-tier mix as "high,low" fractions of the trace, e.g. "0.2,0.3" (rest normal)`)
		prefixOn   = flag.Bool("prefix", false, "enable the global prefix cache with cache-aware routing (aegaeon system only)")
		wlKind     = flag.String("workload", "poisson", "arrival pattern: poisson, multiturn, agentic, sharedprompt (-rps is sessions/tasks per s for the session kinds)")
		sysToks    = flag.Int("system-prompt-tokens", 0, "shared system prompt length for session workloads (0 = per-kind default)")
		kernelJSON = flag.String("kernel-json", "", "write simulation-kernel self-metrics (events/sec, requests/sec, heap allocations) as JSON to this file (aegaeon system only)")
		marketOn   = flag.Bool("market", false, "enable the spot-market fleet model: device classes, price traces, preemption risk (prints the fleet report; aegaeon system only)")
		mktClasses = flag.String("market-classes", "", `comma-separated device classes cycled across the pool, e.g. "H800,A10,RTX4090" (with -market; empty = homogeneous H800; small-VRAM classes need models that fit)`)
		mktSpot    = flag.Bool("market-spot", false, "activate spot pricing and reclaim risk (with -market)")
		mktNaive   = flag.Bool("market-naive", false, "disable preemption-aware placement and KV evacuation: the spot-naive baseline (with -market)")
		smallMix   = flag.Bool("small-models", false, "serve the 6-8B small-model mix instead of the default 6-15B market mix (fits 24 GB market classes like A10/RTX4090)")
		reportList = flag.String("report", "", "comma-separated end-of-run reports to print and check, exiting non-zero on a snapshot that fails its schema's check (aegaeon system only): slo (live SLO monitor: windowed attainment, alert state, missed-token causes), fleet (fleet utilization ledger's per-device GPU-second accounting and its conservation invariant), market (spot-market prices, preemptions and class economics), why (decision-provenance journal summary)")
		reportDir  = flag.String("report-dir", "", "write each selected report's snapshot into this directory as <report>.json (checkable with aegaeon-trace -mode validate-<report>); fleet also writes fleet.csv, per-device rows comparable against results/figure_8_10.csv exposed switch costs")
		chaosOn    = flag.Bool("chaos", false, "run the chaos harness instead of the plain simulation: inject -faults (or a random schedule), then audit recovery; exits non-zero on any violation")
		chaosSweep = flag.Int("chaos-sweep", 0, "run N chaos seeds starting at -seed, each with a fresh random fault schedule (with -chaos; overrides -faults)")
	)
	flag.Parse()
	if *chaosOn {
		if *system != "aegaeon" {
			fmt.Fprintln(os.Stderr, "-chaos requires -system aegaeon (baselines have no fault model)")
			os.Exit(2)
		}
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		cfg, err := chaosConfig(chaosFlags{
			seed: *seed, horizon: *horizon, faults: *faults, models: *nModels, rps: *rps,
			overload: *overloadOn, prefix: *prefixOn,
			marketClasses: *mktClasses, marketSpot: *mktSpot, marketNaive: *mktNaive,
		}, set)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runChaos(cfg, *chaosSweep)
		return
	}
	reportOn, err := parseReports(*reportList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *marketOn {
		// Class economics join against the fleet ledger.
		reportOn["fleet"], reportOn["market"] = true, true
	}
	if *reportDir != "" && len(reportOn) == 0 {
		fmt.Fprintln(os.Stderr, "-report-dir requires -report")
		os.Exit(2)
	}
	for _, c := range []struct {
		set bool
		msg string
	}{
		{*perfetto != "", "-perfetto requires -system aegaeon (baselines are not instrumented)"},
		{*faults != "", "-faults requires -system aegaeon (baselines have no fault model)"},
		{*reportList != "", "-report requires -system aegaeon (baselines are not instrumented)"},
		{*overloadOn, "-overload requires -system aegaeon (baselines have no overload control)"},
		{*prefixOn, "-prefix requires -system aegaeon (baselines have no prefix cache)"},
		{*kernelJSON != "", "-kernel-json requires -system aegaeon (baselines run a private kernel)"},
		{*marketOn, "-market requires -system aegaeon (baselines have no market model)"},
	} {
		if c.set && *system != "aegaeon" {
			fmt.Fprintln(os.Stderr, c.msg)
			os.Exit(2)
		}
	}
	if *chaosSweep > 0 {
		fmt.Fprintln(os.Stderr, "-chaos-sweep requires -chaos")
		os.Exit(2)
	}
	var wk aegaeon.WorkloadKind
	switch *wlKind {
	case "poisson":
		wk = aegaeon.Poisson
	case "multiturn":
		wk = aegaeon.MultiTurn
	case "agentic":
		wk = aegaeon.Agentic
	case "sharedprompt":
		wk = aegaeon.SharedPrompt
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wlKind)
		os.Exit(2)
	}
	highFrac, lowFrac, err := parsePriorityMix(*prioMix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var ds aegaeon.Dataset
	switch *dataset {
	case "sharegpt":
		ds = aegaeon.ShareGPT()
	case "sharegpt-ix2":
		ds = aegaeon.ShareGPTIx2()
	case "sharegpt-ox2":
		ds = aegaeon.ShareGPTOx2()
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	slo := aegaeon.DefaultSLO().Scale(*sloScale).ScaleTTFT(*ttftScale).ScaleTBT(*tbtScale)

	var modelMix []*aegaeon.Model
	if *smallMix {
		modelMix = aegaeon.SmallModels(*nModels)
	}
	cfg := aegaeon.Config{
		Models:               modelMix,
		GPU:                  *gpu,
		TP:                   *tp,
		PrefillGPUs:          *prefill,
		DecodeGPUs:           *decode,
		NumModels:            *nModels,
		SLO:                  slo,
		Seed:                 *seed,
		DisableOptimizations: *unopt,
		Tracing:              *perfetto != "",
		Overload:             *overloadOn,
		PrefixRouting:        *prefixOn,
		Market:               *marketOn,
		MarketClasses:        *mktClasses,
		MarketSpot:           *mktSpot,
		MarketNaive:          *mktNaive,
		Faults:               *faults,
	}
	for name := range reportOn {
		reports[name].enable(&cfg)
	}
	sys, err := aegaeon.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	trace := sys.GenerateTrace(aegaeon.TraceSpec{
		RatePerModel: *rps, Horizon: *horizon, Dataset: ds,
		Workload: wk, SystemPromptTokens: *sysToks,
	})
	if highFrac > 0 || lowFrac > 0 {
		sys.AssignPriorities(trace, highFrac, lowFrac)
	}

	wallStart := time.Now()
	var rep aegaeon.Report
	switch *system {
	case "aegaeon":
		rep, err = sys.Serve(trace)
	case "serverlessllm":
		rep, err = sys.ServeBaseline(aegaeon.ServerlessLLM, trace)
	case "serverlessllm+":
		rep, err = sys.ServeBaseline(aegaeon.ServerlessLLMPlus, trace)
	case "muxserve":
		rep, err = sys.ServeBaseline(aegaeon.MuxServe, trace)
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}
	wallElapsed := time.Since(wallStart)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("system            %s on %d+%d %s GPUs (TP=%d)\n", *system, *prefill, *decode, *gpu, *tp)
	fmt.Printf("workload          %d models x %.2f req/s, %s, %v (%d requests)\n",
		*nModels, *rps, *dataset, *horizon, rep.Requests)
	fmt.Printf("SLO               %v (x%.2f overall)\n", slo, *sloScale)
	fmt.Printf("completed         %d/%d\n", rep.Completed, rep.Requests)
	fmt.Printf("token attainment  %.2f%%\n", 100*rep.Attainment)
	fmt.Printf("TTFT attainment   %.2f%% (mean %v)\n", 100*rep.TTFTAttainment, rep.MeanTTFT.Round(time.Millisecond))
	if *system == "aegaeon" {
		fmt.Printf("model switches    %d (p50 %v, p99 %v)\n",
			rep.Switches, rep.SwitchP50.Round(time.Millisecond), rep.SwitchP99.Round(time.Millisecond))
		fmt.Printf("latency breakdown %v\n", sys.Breakdown())
	}
	if *faults != "" {
		fs := rep.Faults
		fmt.Printf("faults injected   %d (%s)\n", rep.FaultsInjected, *faults)
		fmt.Printf("crash recovery    %d crashed, %d resumed from CPU KV, %d recomputed, %d rejected\n",
			fs.Crashes, fs.Resumed, fs.Recomputed, fs.Rejected)
		fmt.Printf("retries           fetch %d (%d exhausted), transfer %d, store %d\n",
			fs.FetchRetries, fs.FetchExhausted, fs.TransferRetries, fs.StoreRetries)
	}
	if rep.Prefix != nil {
		fmt.Printf("prefix cache      %.1f%% hit ratio, %d tokens saved (%.1f%% of prefill), %d promotions\n",
			100*rep.Prefix.HitRatio(), rep.Prefix.TokensSaved,
			100*rep.Prefix.SavedRatio(), rep.Prefix.Promotions)
	}
	if *overloadOn {
		fmt.Printf("overload level    %s (%d transitions)\n", rep.OverloadLevel, rep.OverloadTransitions)
		if att := rep.AttainmentByPriority; att != nil {
			fmt.Printf("attainment tiers  high %.2f%%, normal %.2f%%, low %.2f%%\n",
				100*att["high"], 100*att["normal"], 100*att["low"])
		}
		total := 0
		for _, n := range rep.Sheds {
			total += n
		}
		fmt.Printf("overload sheds    %d total %v\n", total, rep.Sheds)
	}
	fmt.Printf("virtual duration  %v\n", rep.VirtualDuration.Round(time.Second))

	if *reportDir != "" {
		if err := os.MkdirAll(*reportDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for _, s := range assemble.Schemas {
		if !reportOn[s.Name] {
			continue
		}
		reports[s.Name].print(sys, &rep)
		if err := checkReport(*reportDir, s, sys); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *kernelJSON != "" {
		if err := writeKernelMetrics(*kernelJSON, sys, &rep, wallElapsed); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("kernel metrics    %s\n", *kernelJSON)
	}

	if *perfetto != "" {
		var trace bytes.Buffer
		if err := sys.WritePerfetto(&trace); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*perfetto, trace.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("perfetto trace    %s (open at https://ui.perfetto.dev)\n", *perfetto)
	}
}
