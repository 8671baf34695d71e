package metrics

import (
	"math"
	"testing"
	"time"
)

func TestCDFSmallNEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		n       int
		want    [][2]float64 // nil means expect nil
	}{
		{"empty n=5", nil, 5, nil},
		{"n=0", []float64{1, 2}, 0, nil},
		{"n=-1", []float64{1, 2}, -1, nil},
		{"n=1 single", []float64{7}, 1, [][2]float64{{7, 1}}},
		{"n=1 multi", []float64{3, 9, 5}, 1, [][2]float64{{9, 1}}},
		{"n=2", []float64{3, 9}, 2, [][2]float64{{3, 0}, {9, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c CDF
			for _, v := range tc.samples {
				c.Add(v)
			}
			got := c.Points(tc.n)
			if len(got) != len(tc.want) {
				t.Fatalf("Points(%d) = %v, want %v", tc.n, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Points(%d)[%d] = %v, want %v", tc.n, i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestCDFQuantileSingleSampleAndNaN(t *testing.T) {
	var c CDF
	c.Add(42)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := c.Quantile(q); got != 42 {
			t.Errorf("single-sample Quantile(%v) = %v, want 42", q, got)
		}
	}
	if got := c.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN) = %v, want NaN", got)
	}
}

func TestBreakdownZeroTotalFractions(t *testing.T) {
	cases := []struct {
		name string
		add  func(b *Breakdown)
	}{
		{"untouched", func(*Breakdown) {}},
		{"only negatives", func(b *Breakdown) {
			b.Add(PrefillWaiting, -time.Second)
			b.Add(DataOverhead, -time.Minute)
		}},
		{"only zeros", func(b *Breakdown) {
			b.Add(DecodingExecution, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b Breakdown
			tc.add(&b)
			for i, f := range b.Fractions() {
				if f != 0 || math.IsNaN(f) {
					t.Fatalf("fraction[%d] = %v, want exactly 0", i, f)
				}
			}
		})
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5 (NaN dropped)", s.Count)
	}
	// le-style cumulative: <=0.1 holds 0.05 and 0.1; <=1 adds 0.5; <=10 adds 2.
	want := []uint64{2, 3, 4}
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (%+v)", i, s.Cumulative[i], w, s)
		}
	}
	if math.Abs(s.Sum-102.65) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
	h.ObserveDuration(50 * time.Millisecond)
	if got := h.Snapshot(); got.Count != 6 || got.Cumulative[0] != 3 {
		t.Fatalf("duration observe: %+v", got)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { NewHistogram() }},
		{"descending", func() { NewHistogram(1, 0.5) }},
		{"duplicate", func() { NewHistogram(1, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestExponentialBounds(t *testing.T) {
	b := ExponentialBounds(0.01, 2, 4)
	want := []float64{0.01, 0.02, 0.04, 0.08}
	if len(b) != len(want) {
		t.Fatalf("bounds = %v", b)
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bounds[%d] = %v, want %v", i, b[i], want[i])
		}
	}
	for _, tc := range []struct {
		name          string
		start, factor float64
		n             int
	}{
		{"zero start", 0, 2, 3},
		{"factor 1", 0.1, 1, 3},
		{"n 0", 0.1, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			ExponentialBounds(tc.start, tc.factor, tc.n)
		})
	}
}
