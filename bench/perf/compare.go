package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runRecord is one run's result line with what produced it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// summary is one metric's spread over one workload's runs.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// resultFile holds collected runs: -workload all writes one, -merge joins
// several and -compare reads two.
type resultFile struct {
	Nproc   int                           `json:"nproc"`
	Go      string                        `json:"go"`
	Seconds float64                       `json:"seconds"`
	Summary map[string]map[string]summary `json:"summary"` // workload -> metric
	Runs    []runRecord                   `json:"runs"`
}

func (f *resultFile) samples(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

func (f *resultFile) write(path string) error {
	f.Summary = map[string]map[string]summary{}
	for _, r := range f.Runs {
		if f.Summary[r.Workload] == nil {
			f.Summary[r.Workload] = map[string]summary{}
		}
		for name, m := range r.Metrics {
			if _, done := f.Summary[r.Workload][name]; done {
				continue
			}
			xs := f.samples(r.Workload, name)
			q1, q3 := quartiles(xs)
			f.Summary[r.Workload][name] = summary{Unit: m.Unit, N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
		}
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runAll runs every workload in its own process, so each peak_rss_mb is its
// own: runs untraced runs, then one traced run, per workload.
func runAll(seed int64, seconds, scale float64, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f := resultFile{Nproc: runtime.NumCPU(), Go: runtime.Version(), Seconds: seconds}
	bad := 0
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			trace := 0
			if i == runs {
				trace = 1
			}
			rec, err := child(exe, w.name, seed, seconds, scale, trace)
			if err != nil {
				return err
			}
			if !rec.Correct {
				bad++
			}
			fmt.Fprintf(os.Stderr, "%s trace=%d: correct=%v attempted=%d failed=%d\n",
				w.name, trace, rec.Correct, rec.Attempted, rec.Failed)
			f.Runs = append(f.Runs, rec)
		}
	}
	if err := f.write(out); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed their output checks", bad)
	}
	return nil
}

// child runs one workload in a fresh process and parses its result line.
func child(exe, name string, seed int64, seconds, scale float64, trace int) (runRecord, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", fmt.Sprint(seconds), "-scale", fmt.Sprint(scale), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	rec := runRecord{Workload: name, Seed: seed, Trace: trace}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
		return rec, fmt.Errorf("%s trace=%d printed no result (exit: %v)", name, trace, runErr)
	}
	return rec, nil
}

func mergeFiles(paths []string, out string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs result files")
	}
	var merged *resultFile
	for _, p := range paths {
		f, err := readResultFile(p)
		if err != nil {
			return err
		}
		if merged == nil {
			merged = f
			continue
		}
		merged.Runs = append(merged.Runs, f.Runs...)
	}
	return merged.write(out)
}

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// rel is how far b moved from a, as a share of a.
func rel(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), b)
	}
	return (b - a) / math.Abs(a)
}

// verdict applies a metric's bound to a base and a new sample: worse when
// the new median is worse by more than the bound; unresolved when either
// side's quartile spread exceeds the bound, unless every new run reads better
// than every base run; better when the median gained by more than the base's
// own spread and the new run reads better in at least nine tenths of all
// (base, new) pairs; otherwise same.
func verdict(base, next []float64, higher bool, bound float64) string {
	mb, mn := median(append([]float64(nil), base...)), median(append([]float64(nil), next...))
	b1, b3 := quartiles(base)
	n1, n3 := quartiles(next)
	sb, sn := math.Abs(rel(mb, b3)-rel(mb, b1)), math.Abs(rel(mn, n3)-rel(mn, n1))
	worse := rel(mb, mn)
	if higher {
		worse = -worse
	}
	wins := 0
	for _, b := range base {
		for _, n := range next {
			if (higher && n > b) || (!higher && n < b) {
				wins++
			}
		}
	}
	share := float64(wins) / float64(len(base)*len(next))
	switch {
	case sb > bound || sn > bound:
		if share == 1 {
			return "better"
		}
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > sb && share >= 0.9:
		return "better"
	}
	return "same"
}

// compareFiles prints, per workload, a verdict for every end-to-end metric
// under the bounds in ./BENCHMARK.json, with the per-layer deltas beside
// them. It returns the exit code: 1 when any pair is worse, 2 on bad input.
func compareFiles(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perf -compare base.json new.json")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 2
	}
	base, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 2
	}
	next, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 2
	}
	code := 0
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n%s\n  %-18s %-32s %-32s %8s %6s  %s\n", wl.Name, "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "bound", "verdict")
		var row []string
		for _, m := range spec.EndToEnd {
			b, n := base.samples(wl.Name, m.Name), next.samples(wl.Name, m.Name)
			if len(b) == 0 || len(n) == 0 {
				row = append(row, m.Name+"=missing")
				continue
			}
			v := verdict(b, n, m.Better == "higher", m.Bound)
			if v == "worse" {
				code = 1
			}
			row = append(row, m.Name+"="+v)
			fmt.Fprintf(w, "  %-18s %-32s %-32s %+7.2f%% %5.1f%%  %s\n", m.Name, spread(b), spread(n),
				100*rel(median(b), median(n)), 100*m.Bound, v)
		}
		fmt.Fprintln(w, "  per-layer (traced runs), base median -> new median:")
		for _, m := range spec.PerLayer {
			b, n := base.samples(wl.Name, m.Name), next.samples(wl.Name, m.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			mb, mn := median(b), median(n)
			fmt.Fprintf(w, "    %-32s %12.6g -> %-12.6g %+8.2f%% %s\n", m.Name, mb, mn, 100*rel(mb, mn), m.Unit)
		}
		fmt.Fprintf(w, "%s: %s\n", wl.Name, strings.Join(row, " "))
	}
	return code
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(append([]float64(nil), xs...)), q1, q3)
}
