package workload

import (
	"math/rand"
	"testing"
)

func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want Priority
		err  bool
	}{
		{"", PriorityNormal, false},
		{"normal", PriorityNormal, false},
		{"high", PriorityHigh, false},
		{"low", PriorityLow, false},
		{"urgent", PriorityNormal, true},
	}
	for _, tc := range cases {
		got, err := ParsePriority(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParsePriority(%q) = (%v, %v), want (%v, err=%v)", tc.in, got, err, tc.want, tc.err)
		}
	}
	if PriorityHigh.Rank() <= PriorityNormal.Rank() || PriorityNormal.Rank() <= PriorityLow.Rank() {
		t.Fatal("priority ranks must order high > normal > low")
	}
}

// TestAssignPriorities checks the mix lands near the requested fractions and
// is reproducible for a fixed seed.
func TestAssignPriorities(t *testing.T) {
	trace := make([]Request, 10000)
	AssignPriorities(rand.New(rand.NewSource(7)), trace, 0.2, 0.3)
	counts := map[Priority]int{}
	for _, r := range trace {
		counts[r.Priority]++
	}
	if h := float64(counts[PriorityHigh]) / 10000; h < 0.17 || h > 0.23 {
		t.Errorf("high fraction = %v, want ≈0.2", h)
	}
	if l := float64(counts[PriorityLow]) / 10000; l < 0.27 || l > 0.33 {
		t.Errorf("low fraction = %v, want ≈0.3", l)
	}
	again := make([]Request, 10000)
	AssignPriorities(rand.New(rand.NewSource(7)), again, 0.2, 0.3)
	for i := range trace {
		if trace[i].Priority != again[i].Priority {
			t.Fatal("same seed must give the same mix")
		}
	}
}
