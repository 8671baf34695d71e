package main

import (
	"fmt"
	"os"
	"time"

	"aegaeon/internal/chaos"
)

// chaosFlags are the command-line values -chaos reads.
type chaosFlags struct {
	seed    int64
	horizon time.Duration
	faults  string
	models  int
	rps     float64

	overload, prefix        bool
	marketClasses           string
	marketSpot, marketNaive bool
}

// chaosIgnored are the flags the chaos harness has no use for: it fixes its
// own fleet, workload and SLO, and prints no reports.
var chaosIgnored = []string{
	"gpu", "tp", "prefill", "decode", "dataset",
	"slo-scale", "ttft-scale", "tbt-scale", "unoptimized", "perfetto",
	"priority-mix", "workload", "system-prompt-tokens", "kernel-json",
	"small-models", "report", "report-dir",
}

// chaosConfig maps the command line onto a chaos run's config. set names
// the flags given on the command line: -models and -rps override the
// harness's own fleet size and rate only when given, and a flag the harness
// ignores is an error.
func chaosConfig(f chaosFlags, set map[string]bool) (chaos.Config, error) {
	for _, name := range chaosIgnored {
		if set[name] {
			return chaos.Config{}, fmt.Errorf("-%s has no effect under -chaos", name)
		}
	}
	cfg := chaos.Config{
		Seed:          f.seed,
		Horizon:       f.horizon,
		Spec:          f.faults,
		RandomFaults:  5,
		Overload:      f.overload,
		Prefix:        f.prefix,
		MarketClasses: f.marketClasses,
		Spot:          f.marketSpot,
		MarketNaive:   f.marketNaive,
	}
	if set["models"] {
		cfg.Models = f.models
	}
	if set["rps"] {
		cfg.Rate = f.rps
	}
	return cfg, nil
}

// runChaos executes -chaos mode: one seeded chaos run (explicit -faults spec
// or a random schedule), or a sweep of that many consecutive seeds, printing
// a per-run summary and every fault that failed to inject. Exits non-zero if
// any run breaks a recovery invariant, or if a fault of an explicit -faults
// schedule failed to inject. A random schedule may draw a crash on an
// instance an earlier fault already took down, so its failures only print.
func runChaos(base chaos.Config, sweep int) {
	runs := max(sweep, 1)
	if sweep > 0 {
		base.Spec = "" // sweep runs draw random schedules per seed
	}
	violations, injectErrs := 0, 0
	for i := 0; i < runs; i++ {
		cfg := base
		cfg.Seed = base.Seed + int64(i)
		res, err := chaos.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos seed %d: %v\n", cfg.Seed, err)
			os.Exit(1)
		}
		violations += len(res.Violations)
		injectErrs += len(res.InjectErrs)

		fmt.Printf("chaos seed %-4d   %d/%d completed, %d failed, %d faults, %d failovers\n",
			cfg.Seed, res.Completed, res.Requests, res.Failed, res.Injected, res.Failovers)
		fmt.Printf("chaos schedule    %s\n", res.Spec)
		for _, err := range res.InjectErrs {
			fmt.Fprintf(os.Stderr, "chaos INJECT FAILED seed %d: %v\n", cfg.Seed, err)
		}
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "chaos VIOLATION   seed %d: %s\n", cfg.Seed, v)
		}
	}

	if violations > 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d invariant violations across %d runs\n", violations, runs)
		os.Exit(1)
	}
	if base.Spec != "" && injectErrs > 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d faults of -faults %q failed to inject\n", injectErrs, base.Spec)
		os.Exit(1)
	}
	fmt.Printf("chaos invariants  clean across %d run(s)\n", runs)
}
