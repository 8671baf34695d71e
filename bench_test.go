package aegaeon

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/experiments"
)

// benchOptions returns the experiment scale used by the benchmark harness.
// AEGAEON_BENCH_HORIZON_SEC overrides the trace horizon (default 90 s —
// short enough for a full `go test -bench=.` pass, long enough for the
// figures' shapes to hold).
func benchOptions() experiments.Options {
	o := experiments.Quick()
	o.Horizon = 90 * time.Second
	if v := os.Getenv("AEGAEON_BENCH_HORIZON_SEC"); v != "" {
		if sec, err := strconv.Atoi(v); err == nil && sec > 0 {
			o.Horizon = time.Duration(sec) * time.Second
		}
	}
	return o
}

// runExperiment executes one registered experiment per benchmark iteration
// and reports the figures' numeric cells as benchmark metrics.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	o := benchOptions()
	var tables []experiments.Table
	for i := 0; i < b.N; i++ {
		tables = tables[:0]
		experiments.Run(o, id, func(t experiments.Table) { tables = append(tables, t) })
	}
	if len(tables) == 0 {
		b.Fatalf("no experiment matched %q", id)
	}
	for _, t := range tables {
		b.Logf("\n%s", t.String())
		reportTableMetrics(b, t)
	}
}

// reportTableMetrics surfaces percentage cells as per-row metrics so bench
// output carries the reproduced numbers.
func reportTableMetrics(b *testing.B, t experiments.Table) {
	for _, row := range t.Rows {
		if len(row) < 2 {
			continue
		}
		for ci := 1; ci < len(row) && ci < len(t.Header); ci++ {
			cell := row[ci]
			if !strings.HasSuffix(cell, "%") {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				continue
			}
			name := sanitizeMetric(fmt.Sprintf("%s/%s", row[0], t.Header[ci]))
			b.ReportMetric(v, name)
		}
	}
}

func sanitizeMetric(s string) string {
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '/', r == '.', r == '-', r == '+':
			return r
		}
		return '_'
	}, s)
	return s + "_%"
}

// One benchmark per table and figure of the paper's evaluation (§7), plus
// the motivating figures of §1–§3 and the design ablations.

func BenchmarkFigure1a(b *testing.B)      { runExperiment(b, "Figure 1(a)") }
func BenchmarkFigure1b(b *testing.B)      { runExperiment(b, "Figure 1(b)") }
func BenchmarkFigure4(b *testing.B)       { runExperiment(b, "Figure 4") }
func BenchmarkFigure6(b *testing.B)       { runExperiment(b, "Figure 6") }
func BenchmarkFigure7(b *testing.B)       { runExperiment(b, "Figure 7") }
func BenchmarkTable1(b *testing.B)        { runExperiment(b, "Table 1") }
func BenchmarkTable2(b *testing.B)        { runExperiment(b, "Table 2") }
func BenchmarkFigure8And10(b *testing.B)  { runExperiment(b, "Figure 8") }
func BenchmarkFigure11a(b *testing.B)     { runExperiment(b, "Figure 11(a)") }
func BenchmarkFigure11b(b *testing.B)     { runExperiment(b, "Figure 11(b)") }
func BenchmarkFigure11c(b *testing.B)     { runExperiment(b, "Figure 11(c)") }
func BenchmarkFigure12a(b *testing.B)     { runExperiment(b, "Figure 12(a)") }
func BenchmarkFigure12b(b *testing.B)     { runExperiment(b, "Figure 12(b)") }
func BenchmarkFigure12c(b *testing.B)     { runExperiment(b, "Figure 12(c)") }
func BenchmarkFigure12d(b *testing.B)     { runExperiment(b, "Figure 12(d)") }
func BenchmarkFigure13(b *testing.B)      { runExperiment(b, "Figure 13") }
func BenchmarkFigure14(b *testing.B)      { runExperiment(b, "Figure 14") }
func BenchmarkFigure15Left(b *testing.B)  { runExperiment(b, "Figure 15 (left)") }
func BenchmarkFigure15Right(b *testing.B) { runExperiment(b, "Figure 15 (right)") }
func BenchmarkFigure16(b *testing.B)      { runExperiment(b, "Figure 16") }
func BenchmarkFigure17Left(b *testing.B)  { runExperiment(b, "Figure 17 (left)") }
func BenchmarkFigure17Right(b *testing.B) { runExperiment(b, "Figure 17 (right)") }
func BenchmarkFigure18(b *testing.B)      { runExperiment(b, "Figure 18") }
func BenchmarkHeadline(b *testing.B)      { runExperiment(b, "Headline") }

func BenchmarkAblationOptimizations(b *testing.B) {
	runExperiment(b, "Ablation: auto-scaling optimizations")
}
func BenchmarkAblationGrouping(b *testing.B)     { runExperiment(b, "Ablation: MAX_GPSIZE") }
func BenchmarkAblationQMax(b *testing.B)         { runExperiment(b, "Ablation: QMAX") }
func BenchmarkAblationQuotaFormula(b *testing.B) { runExperiment(b, "Ablation: quota formula") }
func BenchmarkAblationPartition(b *testing.B)    { runExperiment(b, "Ablation: pool partition") }

// BenchmarkServeThroughput measures the simulator itself: virtual seconds
// of a 16-GPU, 40-model serving run simulated per wall-clock second.
func BenchmarkServeThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := New(Config{NumModels: 40, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.1, Horizon: 60 * time.Second})
		rep, err := sys.Serve(trace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.VirtualDuration.Seconds(), "virtual_s/op")
	}
}
