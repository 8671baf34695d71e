package main

import (
	"fmt"
	"os"
	"time"

	"aegaeon/internal/chaos"
)

type chaosOpts struct {
	seed    int64
	horizon time.Duration
	spec    string
	sweep   int
}

// runChaos executes -chaos mode: one seeded chaos run (explicit -faults spec
// or a random schedule), or a -chaos-sweep of consecutive seeds, printing a
// per-run summary. Exits non-zero if any run breaks a recovery invariant.
func runChaos(o chaosOpts) {
	runs := o.sweep
	if runs <= 0 {
		runs = 1
	}
	violations := 0
	for i := 0; i < runs; i++ {
		seed := o.seed + int64(i)
		spec := o.spec
		if o.sweep > 0 {
			spec = "" // sweep runs draw random schedules per seed
		}
		res, err := chaos.Run(chaos.Config{
			Seed:         seed,
			Horizon:      o.horizon,
			Spec:         spec,
			RandomFaults: 5,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos seed %d: %v\n", seed, err)
			os.Exit(1)
		}
		violations += len(res.Violations)

		fmt.Printf("chaos seed %-4d   %d/%d completed, %d failed, %d faults, %d failovers\n",
			seed, res.Completed, res.Requests, res.Failed, res.Injected, res.Failovers)
		fmt.Printf("chaos schedule    %s\n", res.Spec)
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "chaos VIOLATION   seed %d: %s\n", seed, v)
		}
	}

	if violations > 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d invariant violations across %d runs\n", violations, runs)
		os.Exit(1)
	}
	fmt.Printf("chaos invariants  clean across %d run(s)\n", runs)
}
