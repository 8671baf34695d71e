package main

import (
	"strings"
	"testing"
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

// TestParseReports covers the -report grammar: names from the report table,
// whitespace tolerated, and an unknown name rejected with the valid list.
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
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "slo, fleet, why") {
		t.Fatalf(`parseReports("fleet,bogus") error = %v, want one naming the report and the valid ones`, err)
	}
}
