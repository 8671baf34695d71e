package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs every workload shrunk, untraced and traced, and checks that
// each emits exactly the metrics BENCHMARK.json names, with their units, and
// passes its output checks.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
		for trace := 0; trace <= 1; trace++ {
			t.Run(w.Name+map[int]string{0: "/untraced", 1: "/traced"}[trace], func(t *testing.T) {
				if w.Name == "gateway" && !haveGateway {
					t.Skip("the gateway workload needs Go 1.24")
				}
				r := &run{seed: 1, budget: 300 * time.Millisecond, scale: 0.02, out: io.Discard, metrics: map[string]metric{}}
				if trace == 1 {
					r.spans = &recorder{}
				}
				res, err := runOne(w.Name, r, filepath.Join(t.TempDir(), "trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d problems=%q", res.Correct, res.Attempted, res.Failed, r.problems)
				}
				for name, unit := range want[trace] {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[trace][name]; !ok || !valid.MatchString(name) {
						t.Errorf("metric %s is not in BENCHMARK.json's set for trace %d", name, trace)
					}
				}
			})
		}
	}
}
