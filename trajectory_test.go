package aegaeon_test

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// trajectory is BENCH_trajectory.json: one row per performance change, with
// the benchmark's medians and ranges at its parent commit and with it.
type trajectory struct {
	SchemaVersion int             `json:"schema_version"`
	Rows          []trajectoryRow `json:"rows"`
}

type trajectoryRow struct {
	PR      int    `json:"pr"`
	Parent  string `json:"parent"` // the commit the change was measured against
	Title   string `json:"title"`
	Command string `json:"command"` // bench/run.sh's arguments, with W for the workload
	Runs    int    `json:"runs"`    // runs of each side, alternated parent/change
	Host    string `json:"host"`
	// Workloads maps a BENCHMARK.json workload to its end-to-end metrics
	// before and after the change.
	Workloads map[string]struct {
		Before map[string]trajectoryStat `json:"before"`
		After  map[string]trajectoryStat `json:"after"`
	} `json:"workloads"`
}

// trajectoryStat is one metric over a side's runs: their median and range.
type trajectoryStat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// TestBenchTrajectory validates BENCH_trajectory.json: its schema version,
// rows in strictly increasing PR order, each keyed by a parent commit, and
// for each row only workloads and end-to-end metrics that BENCHMARK.json
// declares, measured on both sides, with min <= median <= max.
func TestBenchTrajectory(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &bench, false)
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range bench.EndToEnd {
		metrics[m.Name] = true
	}

	var tr trajectory
	readJSON(t, "BENCH_trajectory.json", &tr, true)
	if tr.SchemaVersion != 1 {
		t.Fatalf("schema_version %d, want 1", tr.SchemaVersion)
	}
	if len(tr.Rows) == 0 {
		t.Fatal("no rows")
	}
	commit := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	for i, row := range tr.Rows {
		if i > 0 && row.PR <= tr.Rows[i-1].PR {
			t.Errorf("row %d: PR %d after PR %d, want increasing PR order", i, row.PR, tr.Rows[i-1].PR)
		}
		if row.PR <= 0 || !commit.MatchString(row.Parent) || row.Title == "" || row.Command == "" ||
			row.Runs < 1 || row.Host == "" {
			t.Errorf("row %d (PR %d): missing or malformed pr, parent, title, command, runs or host", i, row.PR)
		}
		if len(row.Workloads) == 0 {
			t.Errorf("row %d (PR %d): no workloads", i, row.PR)
		}
		for name, w := range row.Workloads {
			if !workloads[name] {
				t.Errorf("row %d (PR %d): workload %q is not in BENCHMARK.json", i, row.PR, name)
			}
			if len(w.Before) == 0 || len(w.Before) != len(w.After) {
				t.Errorf("row %d (PR %d) %s: %d metrics before, %d after", i, row.PR, name, len(w.Before), len(w.After))
			}
			for side, stats := range map[string]map[string]trajectoryStat{"before": w.Before, "after": w.After} {
				for m, s := range stats {
					if !metrics[m] {
						t.Errorf("row %d (PR %d) %s %s: %q is not an end-to-end metric", i, row.PR, name, side, m)
					}
					if _, ok := w.Before[m]; !ok {
						t.Errorf("row %d (PR %d) %s: %s measured after only", i, row.PR, name, m)
					}
					if !(s.Min <= s.Median && s.Median <= s.Max) {
						t.Errorf("row %d (PR %d) %s %s %s: min %v, median %v, max %v out of order",
							i, row.PR, name, side, m, s.Min, s.Median, s.Max)
					}
				}
			}
		}
	}
}

// readJSON decodes file into v; strict rejects fields v does not declare.
func readJSON(t *testing.T, file string, v any, strict bool) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
}
