package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/chaos"
)

// TestParsePriorityMix covers the -priority-mix grammar: an empty value is an
// all-normal trace, whitespace around either fraction is tolerated, and
// anything else that is not two non-negative fractions summing to at most 1
// is rejected.
func TestParsePriorityMix(t *testing.T) {
	for _, tc := range []struct {
		in        string
		high, low float64
		wantErr   bool
	}{
		{in: "", high: 0, low: 0},
		{in: "0.2,0.3", high: 0.2, low: 0.3},
		{in: " 0.2 , 0.3 ", high: 0.2, low: 0.3},
		{in: "0.2", wantErr: true},
		{in: "a,0.3", wantErr: true},
		{in: "-0.1,0.2", wantErr: true},
		{in: "0.6,0.5", wantErr: true},
	} {
		high, low, err := parsePriorityMix(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parsePriorityMix(%q) = %v, %v; want an error", tc.in, high, low)
			}
			continue
		}
		if err != nil {
			t.Errorf("parsePriorityMix(%q): %v", tc.in, err)
			continue
		}
		if high != tc.high || low != tc.low {
			t.Errorf("parsePriorityMix(%q) = %v, %v; want %v, %v", tc.in, high, low, tc.high, tc.low)
		}
	}
}

// TestParseReports covers the -report grammar: names from the snapshot
// schema table, each with a report row, whitespace tolerated, and an
// unknown name rejected with the valid list.
func TestParseReports(t *testing.T) {
	on, err := parseReports("")
	if err != nil || len(on) != 0 {
		t.Fatalf(`parseReports("") = %v, %v; want none`, on, err)
	}
	on, err = parseReports(" slo,why ")
	if err != nil || len(on) != 2 || !on["slo"] || !on["why"] {
		t.Fatalf(`parseReports(" slo,why ") = %v, %v`, on, err)
	}
	_, err = parseReports("fleet,bogus")
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "slo, fleet, market, why") {
		t.Fatalf(`parseReports("fleet,bogus") error = %v, want one naming the report and the valid ones`, err)
	}
	for _, s := range assemble.Schemas {
		if _, ok := reports[s.Name]; !ok {
			t.Errorf("schema %s has no report row", s.Name)
		}
	}
	if len(reports) != len(assemble.Schemas) {
		t.Errorf("%d report rows for %d schemas", len(reports), len(assemble.Schemas))
	}
}

// TestChaosConfig covers the -chaos flag mapping: wired flags reach the
// chaos config, -models and -rps override the harness's own fleet size and
// rate only when given on the command line, and every flag the harness
// ignores is rejected by name.
func TestChaosConfig(t *testing.T) {
	f := chaosFlags{
		seed: 5, horizon: 90 * time.Second, faults: "crash@40s:chaos/decode1",
		models: 40, rps: 0.1, // the plain simulation's defaults
		overload: true, prefix: true, marketClasses: "H800,A10", marketSpot: true, marketNaive: true,
	}
	wired := chaos.Config{
		Seed: 5, Horizon: 90 * time.Second, Spec: "crash@40s:chaos/decode1", RandomFaults: 5,
		Overload: true, Prefix: true, MarketClasses: "H800,A10", Spot: true, MarketNaive: true,
	}
	withFleet := wired
	withFleet.Models, withFleet.Rate = 40, 0.1
	for _, tc := range []struct {
		name string
		set  []string
		want chaos.Config
	}{
		{"wired", []string{"chaos", "seed", "horizon", "faults", "overload", "prefix",
			"market-classes", "market-spot", "market-naive"}, wired},
		{"models and rps not given", []string{"chaos", "market"}, wired},
		{"models and rps given", []string{"chaos", "models", "rps"}, withFleet},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		got, err := chaosConfig(f, set)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: config = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	for _, name := range []string{
		"gpu", "tp", "prefill", "decode", "dataset", "slo-scale", "ttft-scale", "tbt-scale",
		"unoptimized", "perfetto", "priority-mix", "workload", "system-prompt-tokens",
		"kernel-json", "small-models", "report", "report-dir",
	} {
		_, err := chaosConfig(f, map[string]bool{"chaos": true, "seed": true, name: true})
		if want := "-" + name + " has no effect under -chaos"; err == nil || err.Error() != want {
			t.Errorf("-%s: error %v, want %q", name, err, want)
		}
	}
}
