// Command aegaeon-trace generates and characterizes market workload traces:
// the Fig. 1(a) popularity CDF, the Fig. 1(b) burst timeline, and summary
// statistics of synthesized Poisson traces, optionally emitting the trace
// as CSV for external tools. It also checks the files the other commands
// write: Perfetto execution traces from aegaeon-sim -perfetto (-mode
// validate FILE...), and the snapshots aegaeon-sim -report NAME
// -report-dir DIR writes, one validate-<name> mode per checked snapshot
// schema (-mode validate-slo DIR/slo.json). -mode why DIR/why.json
// [-request id] checks a decision journal, then pretty-prints its
// why-trace.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/decision"
	"aegaeon/internal/obs"
	"aegaeon/internal/theory"
	"aegaeon/internal/workload"
)

// modes lists every -mode, one validate-<name> mode per checked snapshot
// schema last; checks maps each of those to its schema's check.
var modes, checks = func() ([]string, map[string]func([]byte) error) {
	modes := []string{"market", "burst", "poisson", "validate", "why"}
	checks := map[string]func([]byte) error{}
	for _, s := range assemble.Schemas {
		if s.Checked() {
			modes = append(modes, "validate-"+s.Name)
			checks["validate-"+s.Name] = s.Check
		}
	}
	return modes, checks
}()

// parseArgs parses the flags and returns the positional arguments. Flags
// may follow them, as in -mode why FILE -request id.
func parseArgs() []string {
	var args []string
	for flag.Parse(); flag.NArg() > 0; flag.CommandLine.Parse(flag.Args()[1:]) {
		args = append(args, flag.Arg(0))
	}
	return args
}

// validate reads and checks each file, exiting 2 without one and 1 on the
// first that fails. It returns the last file's bytes.
func validate(mode string, files []string, check func([]byte) error) []byte {
	if len(files) == 0 {
		fmt.Fprintf(os.Stderr, "%s mode needs files to check: -mode %s FILE...\n", mode, mode)
		os.Exit(2)
	}
	var data []byte
	for _, f := range files {
		var err error
		if data, err = os.ReadFile(f); err == nil {
			err = check(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: invalid: %v\n", f, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid\n", f)
	}
	return data
}

func main() {
	var (
		mode    = flag.String("mode", "market", strings.Join(modes, ", ")+"; validate, why and validate-<name> take the files to check as arguments")
		nModels = flag.Int("models", 779, "number of models")
		zipfS   = flag.Float64("zipf", 2.0, "Zipf exponent for market popularity")
		rps     = flag.Float64("rps", 0.1, "per-model rate for poisson mode")
		horizon = flag.Duration("horizon", 10*time.Minute, "trace length")
		seed    = flag.Int64("seed", 1, "random seed")
		csv     = flag.Bool("csv", false, "emit the trace as CSV on stdout")
		request = flag.String("request", "", "print one request's full decision chain in why mode (default: summary + chain digests)")
	)
	files := parseArgs()
	rng := rand.New(rand.NewSource(*seed))

	switch *mode {
	case "market":
		w := workload.ZipfWeights(*nModels, *zipfS)
		cdf := workload.MarketCDF(w)
		fmt.Printf("marketplace popularity, %d models, Zipf s=%.2f\n", *nModels, *zipfS)
		fmt.Printf("%-12s %s\n", "top models", "request share")
		for _, f := range []float64{0.01, 0.02, 0.059, 0.10, 0.25, 0.50, 1.0} {
			fmt.Printf("%-12s %.2f%%\n", fmt.Sprintf("%.1f%%", 100*f), 100*cdf(f))
		}
		fmt.Printf("\ntail %.1f%% of models receive %.2f%% of requests (paper: 94.1%% -> 1.35%%)\n",
			94.1, 100*(1-cdf(1-0.941)))
		em := theory.ExpectedActiveModels(100, 0.037, 16790*time.Millisecond)
		fmt.Printf("Theorem 3.1 reference point: E[m] = %.2f for M=100, λ=0.037, T=16.79s\n", em)

	case "burst":
		trace, rates := workload.BurstTrace(rng, "hot", 620, 860,
			90*time.Second, 25*time.Second, *horizon, workload.ShareGPT())
		var peak, sum, over float64
		for _, r := range rates {
			sum += r
			if r > peak {
				peak = r
			}
			if r > 700 {
				over++
			}
		}
		fmt.Printf("burst trace: %d requests over %v\n", len(trace), *horizon)
		fmt.Printf("mean %.0f req/s, peak %.0f req/s, %.1f%% of seconds above a 700 req/s reservation\n",
			sum/float64(len(rates)), peak, 100*over/float64(len(rates)))
		if *csv {
			fmt.Println("second,rate")
			for i, r := range rates {
				fmt.Printf("%d,%.0f\n", i, r)
			}
		}

	case "poisson":
		names := make([]string, *nModels)
		for i := range names {
			names[i] = fmt.Sprintf("model-%03d", i)
		}
		trace := workload.PoissonTrace(rng, names, *rps, *horizon, workload.ShareGPT())
		st := workload.Summarize(trace)
		fmt.Printf("poisson trace: %d requests, %d models, %.2f req/s total\n",
			st.Requests, st.Models, st.TotalRate)
		fmt.Printf("mean input %.0f tokens, mean output %.0f tokens\n", st.MeanIn, st.MeanOut)
		if *csv {
			fmt.Println("id,model,arrival_s,input_tokens,output_tokens")
			for _, r := range trace {
				fmt.Printf("%s,%s,%.3f,%d,%d\n", r.ID, r.Model, r.Arrival.Seconds(), r.InputTokens, r.OutputTokens)
			}
		}

	case "validate":
		validate(*mode, files, func(data []byte) error { return obs.ValidatePerfetto(bytes.NewReader(data)) })

	case "why":
		// The check decoded the journal already, so this decode succeeds.
		var exp decision.Export
		_ = json.Unmarshal(validate(*mode, files, checks["validate-why"]), &exp)
		fmt.Printf("decision journal: schema v%d, %d decisions, %d retained, %d chains\n",
			exp.SchemaVersion, exp.Total, len(exp.Records), len(exp.Chains))
		if *request != "" {
			for _, c := range exp.Chains {
				if c.Request == *request {
					printWhyChain(c)
					return
				}
			}
			fmt.Fprintf(os.Stderr, "no chain for request %q\n", *request)
			os.Exit(1)
		}
		printWhySummary(&exp)

	default:
		if checks[*mode] == nil {
			fmt.Fprintf(os.Stderr, "unknown mode %q (valid: %s)\n", *mode, strings.Join(modes, ", "))
			os.Exit(2)
		}
		validate(*mode, files, checks[*mode])
	}
}

// printWhySummary renders the journal at a glance: decision counts by kind
// and outcome, then a one-line digest per retained chain (its kind sequence
// and terminal outcome) so a failing request is findable without jq.
func printWhySummary(exp *decision.Export) {
	type ko struct{ kind, outcome string }
	counts := map[ko]int{}
	var order []ko
	for _, r := range exp.Records {
		k := ko{r.Kind, r.Outcome}
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].kind != order[j].kind {
			return order[i].kind < order[j].kind
		}
		return order[i].outcome < order[j].outcome
	})
	for _, k := range order {
		fmt.Printf("decision %-20s %-22s %d\n", k.kind, k.outcome, counts[k])
	}
	for _, c := range exp.Chains {
		var kinds []string
		for _, r := range c.Records {
			kinds = append(kinds, r.Kind)
		}
		last := c.Records[len(c.Records)-1]
		fmt.Printf("chain %-12s %-8s %s\n", c.Request, last.Outcome, strings.Join(kinds, " -> "))
	}
}

// printWhyChain renders one request's full decision chain: every record with
// its virtual timestamp, outcome, reason, evidence inputs, and — where the
// decision weighed alternatives — the candidate set with per-term score
// decompositions, the chosen one marked.
func printWhyChain(c decision.ChainExport) {
	fmt.Printf("why %s (%d decisions):\n", c.Request, len(c.Records))
	for _, r := range c.Records {
		fmt.Printf("  [%12s] %-18s %-22s", time.Duration(r.At), r.Kind, r.Outcome)
		if r.Instance != "" {
			fmt.Printf(" @%s", r.Instance)
		}
		if r.Reason != "" {
			fmt.Printf("  (%s)", r.Reason)
		}
		fmt.Println()
		for _, t := range r.Inputs {
			fmt.Printf("      input %-28s %g\n", t.Name, t.Value)
		}
		for _, cd := range r.Candidates {
			mark := " "
			if cd.Chosen {
				mark = "*"
			}
			if cd.Excluded {
				mark = "x"
			}
			fmt.Printf("    %s cand %-20s score %g\n", mark, cd.Name, cd.Score)
			for _, t := range cd.Terms {
				fmt.Printf("          term %-24s %g\n", t.Name, t.Value)
			}
		}
	}
}
