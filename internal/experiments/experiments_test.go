package experiments

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/core"
	"aegaeon/internal/engine"
	"aegaeon/internal/workload"
)

func wlShareGPT() workload.Dataset { return workload.ShareGPT() }

// tinyOptions keeps unit-test experiment runs fast.
func tinyOptions() Options {
	o := Quick()
	o.Horizon = 60 * time.Second
	return o
}

func pct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage: %v", cell, err)
	}
	return v
}

func TestTable1Exact(t *testing.T) {
	tab := Table1(tinyOptions())
	want := map[string]string{
		"Qwen-7B":             "512 KB",
		"InternLM2.5-7B-chat": "128 KB",
		"LLaMA-13B":           "800 KB",
		"Qwen-72B":            "2560 KB",
	}
	for _, row := range tab.Rows {
		if want[row[0]] != row[2] {
			t.Errorf("%s KV size = %s, want %s", row[0], row[2], want[row[0]])
		}
	}
}

func TestFigure1aSkew(t *testing.T) {
	tab := Figure1a(tinyOptions())
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Top 5.9% of models must hold ~98%+ of requests.
	found := false
	for _, row := range tab.Rows {
		if row[0] == "5.9%" {
			found = true
			if v := pct(t, row[1]); v < 97 {
				t.Errorf("top 5.9%% share = %.1f%%, want ~98.7%%", v)
			}
		}
	}
	if !found {
		t.Fatal("5.9% row missing")
	}
}

func TestFigure4MatchesTheorem(t *testing.T) {
	tab := Figure4(tinyOptions())
	var em, mean float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "E[m] (Theorem 3.1)":
			em, _ = strconv.ParseFloat(row[1], 64)
		case "simulated mean":
			mean, _ = strconv.ParseFloat(row[1], 64)
		}
	}
	if em < 45 || em > 48 {
		t.Errorf("E[m] = %.2f, want ~46.3", em)
	}
	if mean < em-3 || mean > em+3 {
		t.Errorf("simulated mean %.2f far from E[m] %.2f", mean, em)
	}
}

func TestFigure7Totals(t *testing.T) {
	tab := Figure7(tinyOptions())
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "TOTAL" {
		t.Fatal("missing TOTAL row")
	}
	before, err := time.ParseDuration(last[1])
	if err != nil {
		t.Fatal(err)
	}
	after, err := time.ParseDuration(last[2])
	if err != nil {
		t.Fatal(err)
	}
	if before < 26*time.Second || before > 28*time.Second {
		t.Errorf("unoptimized init = %v, paper reports ~26.9s", before)
	}
	if after > 1500*time.Millisecond {
		t.Errorf("optimized init = %v, want ~Eq.4 load", after)
	}
}

// The §5 headline: the T0->T3 ladder must be monotone and remove >=95% of
// the scaling latency (the paper reports up to 97%).
func TestFigure8Ladder(t *testing.T) {
	tab := Figure8(tinyOptions())
	if len(tab.Rows) != 4 {
		t.Fatalf("ladder has %d rows", len(tab.Rows))
	}
	var prev time.Duration = 1 << 62
	for _, row := range tab.Rows {
		d, err := time.ParseDuration(row[1])
		if err != nil {
			t.Fatalf("bad duration %q: %v", row[1], err)
		}
		if d > prev {
			t.Errorf("ladder not monotone at %s: %v > %v", row[0], d, prev)
		}
		prev = d
	}
	if red := pct(t, tab.Rows[3][2]); red < 95 {
		t.Errorf("T3 reduction = %.1f%%, want >= 95%% (paper: 97%%)", red)
	}
	t0, _ := time.ParseDuration(tab.Rows[0][1])
	if t0 < 20*time.Second {
		t.Errorf("T0 = %v, want tens of seconds", t0)
	}
	t3, _ := time.ParseDuration(tab.Rows[3][1])
	if t3 > time.Second {
		t.Errorf("T3 = %v, want sub-second", t3)
	}
}

// Figure 6's directional claims: decoding-first has the worst TTFT; the
// disaggregated system has the best token attainment.
func TestFigure6Directions(t *testing.T) {
	tab := Figure6(tinyOptions())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	pf, df, dis := tab.Rows[0], tab.Rows[1], tab.Rows[2]
	if pct(t, df[2]) >= pct(t, pf[2]) {
		t.Errorf("decoding-first TTFT attainment %.1f%% not worse than prefill-first %.1f%%",
			pct(t, df[2]), pct(t, pf[2]))
	}
	if pct(t, dis[1]) < pct(t, pf[1]) || pct(t, dis[1]) < pct(t, df[1]) {
		t.Errorf("disaggregated attainment %s not best (pf %s, df %s)", dis[1], pf[1], df[1])
	}
}

// A small Figure-11-style point: Aegaeon must beat both baselines once the
// model count exceeds what request-level scaling can hold.
func TestHeadlineDirection(t *testing.T) {
	o := tinyOptions()
	o.PrefillGPUs, o.DecodeGPUs, o.TotalGPUs = 2, 3, 5
	models := marketModels(20) // 4 models per GPU — beyond E[m] capacity
	rng := rand.New(rand.NewSource(o.Seed))
	trace := workload.PoissonTrace(rng, modelNames(models), 0.1, o.Horizon, workload.ShareGPT())
	aeg := runAegaeon(o, models, trace).Attainment()
	sllm := runSLLM(o, models, trace, false).Attainment()
	mux := runMux(o, models, trace).Attainment()
	if aeg <= sllm {
		t.Errorf("Aegaeon %.3f <= ServerlessLLM %.3f at 4 models/GPU", aeg, sllm)
	}
	if aeg <= mux {
		t.Errorf("Aegaeon %.3f <= MuxServe %.3f at 4 models/GPU", aeg, mux)
	}
}

// The optimization ablation must be roughly ordered: full stack >= each
// single removal >= T0.
func TestAblationOptimizationsOrdering(t *testing.T) {
	o := tinyOptions()
	o.PrefillGPUs, o.DecodeGPUs = 2, 3
	tab := AblationOptimizations(o)
	full := pct(t, tab.Rows[0][1])
	t0 := pct(t, tab.Rows[len(tab.Rows)-1][1])
	if full < t0 {
		t.Errorf("full stack %.1f%% worse than T0 %.1f%%", full, t0)
	}
	for _, row := range tab.Rows[1:] {
		if v := pct(t, row[1]); v > full+5 {
			t.Errorf("%s attainment %.1f%% exceeds full stack %.1f%%", row[0], v, full)
		}
	}
}

func TestRegistryFiltering(t *testing.T) {
	var got []Table
	Run(tinyOptions(), "Table 1", func(t Table) { got = append(got, t) })
	if len(got) != 1 || got[0].ID != "Table 1" {
		t.Fatalf("filter returned %d tables", len(got))
	}
	if len(IDs()) < 25 {
		t.Fatalf("registry has %d experiments", len(IDs()))
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		ID: "X", Title: "test", Header: []string{"a", "b"},
		Rows: [][]string{{"1", "2"}}, Notes: "n",
	}
	s := tab.String()
	for _, want := range []string{"== X — test ==", "a", "1", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// Determinism across the harness: same options, same tables.
func TestExperimentDeterminism(t *testing.T) {
	o := tinyOptions()
	a := Figure4(o)
	b := Figure4(o)
	if a.String() != b.String() {
		t.Fatal("Figure4 not deterministic")
	}
}

func TestUtilizationHelper(t *testing.T) {
	o := tinyOptions()
	o.PrefillGPUs, o.DecodeGPUs = 1, 1
	models := marketModels(1)
	rng := rand.New(rand.NewSource(1))
	trace := workload.PoissonTrace(rng, modelNames(models), 0.2, o.Horizon, workload.ShareGPT())
	sys, se := buildAegaeon(o, models)
	mustSubmit(sys, trace)
	se.Run()
	sys.Finalize(se.Now())
	u := utilizationOf(sys, se)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %.3f", u)
	}
}

// All options sets must produce working engines end to end (guards the
// Options matrix against bit rot).
func TestAllOptionCombos(t *testing.T) {
	o := tinyOptions()
	o.Horizon = 30 * time.Second
	o.PrefillGPUs, o.DecodeGPUs = 1, 1
	models := marketModels(2)
	rng := rand.New(rand.NewSource(2))
	trace := workload.PoissonTrace(rng, modelNames(models), 0.1, o.Horizon, workload.ShareGPT())
	for i := 0; i < 16; i++ {
		opts := engine.Options{
			ComponentReuse:  i&1 != 0,
			ExplicitMemory:  i&2 != 0,
			Prefetch:        i&4 != 0,
			FineGrainedSync: i&8 != 0,
		}
		sys := runAegaeon(o, models, trace, func(c *core.Config) { c.Opts = opts })
		if sys.Completed() != len(trace) {
			t.Errorf("opts %+v: completed %d/%d", opts, sys.Completed(), len(trace))
		}
	}
}

func TestMaxModelsAt90(t *testing.T) {
	o := tinyOptions()
	o.PrefillGPUs, o.DecodeGPUs, o.TotalGPUs = 2, 3, 5
	counts := []int{4}
	got := MaxModelsAt90(o, sysAegaeon, 0.05, counts, wlShareGPT())
	if got != 4 {
		t.Fatalf("4 lightly-loaded models on 5 GPUs should clear 90%%: got %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown system accepted")
		}
	}()
	MaxModelsAt90(o, "vLLM", 0.05, counts, wlShareGPT())
}
