package main

import (
	"fmt"
	"os"
	"time"

	"aegaeon/internal/chaos"
)

type chaosOpts struct {
	seed     int64
	horizon  time.Duration
	spec     string
	replicas int
	sweep    int
}

// runChaos executes -chaos mode: one seeded chaos run (explicit -faults spec
// or a random schedule), or a -chaos-sweep of consecutive seeds, printing a
// per-run summary. Exits non-zero if any run breaks an invariant — the
// recovery audit and, with -store-replicas > 1, the control-plane
// linearizability audit.
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
			Seed:          seed,
			Horizon:       o.horizon,
			Spec:          spec,
			StoreReplicas: o.replicas,
			RandomFaults:  5,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos seed %d: %v\n", seed, err)
			os.Exit(1)
		}
		violations += len(res.Violations)

		fmt.Printf("chaos seed %-4d   %d/%d completed, %d failed, %d faults, %d failovers\n",
			seed, res.Completed, res.Requests, res.Failed, res.Injected, res.Failovers)
		fmt.Printf("chaos schedule    %s\n", res.Spec)
		if res.Store != nil {
			fmt.Printf("control plane     %d replicas, leader %s, term %d, %d leader changes, commit %d\n",
				len(res.Store.Replicas), res.Store.Leader, res.Store.Term,
				res.Store.LeaderChanges, res.Store.CommitIndex)
			fmt.Printf("store ops         %d acked (p50 %v, p99 %v), unavailability %d windows / %v\n",
				res.StoreOpsAcked, res.StoreOpP50.Round(time.Microsecond),
				res.StoreOpP99.Round(time.Microsecond), res.UnavailWindows,
				res.UnavailTotal.Round(time.Millisecond))
		}
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
