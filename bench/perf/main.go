// Command perf is the repository's benchmark. It serves seeded workloads
// through the program's public entry points (aegaeon.New, GenerateTrace and
// Serve; the observers' read paths; gateway.Handler over real HTTP), checks
// that every output is correct, and prints each metric with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"}}}
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end set; with
// -trace 1 they are its per_layer set, and the spans recorded around each
// call are written as Chrome trace JSON that Perfetto opens.
//
// Run it from the repository root (bench/README.md has the details):
//
//	bash bench/run.sh -workload paper -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -runs 5 -json bench/out/a.json
//	bash bench/run.sh -compare bench/baseline/seed1.json bench/out/a.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation of one workload.
type run struct {
	seed   int64
	budget time.Duration // how long the run measures
	scale  float64       // shrinks horizons and gateway steps
	spans  *recorder     // nil in untraced runs
	out    io.Writer     // human-readable detail

	attempted, failed int
	metrics           map[string]metric
	problems          []string
	probes            []time.Duration // speed-probe costs, untraced runs only
}

func (r *run) traced() bool { return r.spans != nil }

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// problem records an output check that failed; any problem makes the run
// incorrect.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = []struct {
	name string
	fn   func(*run) error
}{
	{"paper", runPaper},
	{"observed", runObserved},
	{"sessions", runSessions},
	{"gateway", runGateway},
}

func lookup(name string) func(*run) error {
	for _, w := range workloads {
		if w.name == name {
			return w.fn
		}
	}
	return nil
}

// runOne runs one workload and returns its result line.
func runOne(name string, r *run, traceOut string) (result, error) {
	fn := lookup(name)
	if fn == nil {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	start := time.Now()
	if err := fn(r); err != nil {
		return result{}, err
	}
	if r.traced() {
		r.set("trace.overhead_pct", "%", r.spans.overheadPct(time.Since(start)))
		if err := r.spans.writeChrome(traceOut); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(r.out, "wrote %d spans to %s\n", r.spans.count(), traceOut)
	} else {
		rss, err := peakRSSMiB()
		if err != nil {
			return result{}, err
		}
		r.set("peak_rss_mb", "MiB", rss)
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("metric %s is not finite", name)
			r.metrics[name] = metric{-1, m.Unit}
		}
	}
	return result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "paper, observed, sessions, gateway, or all")
		seed     = flag.Int64("seed", 1, "seeds the generated inputs: the trace and the gateway's load")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics and a span file")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default bench/out/<workload>.trace.json)")
		scale    = flag.Float64("scale", 1, "shrink batch horizons, gateway warm-ups and the speed probe by this factor")
		runs     = flag.Int("runs", 5, "with -workload all: untraced runs per workload, each followed by one traced run")
		jsonOut  = flag.String("json", "", "with -workload all or -merge: write the collected runs here")
		compare  = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		merge    = flag.Bool("merge", false, "concatenate result files: -merge -json out.json a.json b.json")
	)
	flag.Parse()
	switch {
	case *compare:
		os.Exit(compareFiles(flag.Args(), os.Stdout))
	case *merge:
		if err := mergeFiles(flag.Args(), *jsonOut); err != nil {
			fatal(err)
		}
		return
	case *workload == "all":
		if err := runAll(*seed, *seconds, *scale, *runs, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1, not %d", *trace))
	}
	if *traceOut == "" {
		*traceOut = fmt.Sprintf("bench/out/%s.trace.json", *workload)
	}
	r := &run{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		scale:   *scale,
		out:     os.Stdout,
		metrics: map[string]metric{},
	}
	if *trace == 1 {
		r.spans = &recorder{}
	}
	res, err := runOne(*workload, r, *traceOut)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-32s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", strings.TrimSpace(err.Error()))
	os.Exit(2)
}
