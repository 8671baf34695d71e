package metrics

// These tests hold the Reservoir behind the gateway's live TTFT and TBT
// summaries to the contract those summaries export.

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestReservoirEmpty(t *testing.T) {
	s := NewReservoir(16)
	if s.N() != 0 || s.Seen() != 0 {
		t.Fatalf("empty reservoir: N=%d Seen=%d", s.N(), s.Seen())
	}
	if got := s.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty Quantile = %v, want NaN", got)
	}
	if got := s.Mean(); !math.IsNaN(got) {
		t.Fatalf("empty Mean = %v, want NaN", got)
	}
	if got := s.Samples(); len(got) != 0 {
		t.Fatalf("empty Samples = %v", got)
	}
}

func TestReservoirSingleSample(t *testing.T) {
	s := NewReservoir(16)
	s.AddDuration(250 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0.25 {
			t.Fatalf("Quantile(%v) = %v, want 0.25", q, got)
		}
	}
	if got := s.Mean(); got != 0.25 {
		t.Fatalf("Mean = %v, want 0.25", got)
	}
	if s.N() != 1 || s.Seen() != 1 {
		t.Fatalf("N=%d Seen=%d", s.N(), s.Seen())
	}
}

func TestReservoirHeavyDuplicates(t *testing.T) {
	// 100x the cap, every sample identical: the reservoir must stay at the
	// cap, remember how many it saw, and report the duplicate exactly at
	// every quantile (any unbiased subsample of a constant is constant).
	const cap = 64
	s := NewReservoir(cap)
	for i := 0; i < 100*cap; i++ {
		s.Add(3.5)
	}
	if s.N() != cap {
		t.Fatalf("N = %d, want cap %d", s.N(), cap)
	}
	if s.Seen() != 100*cap {
		t.Fatalf("Seen = %d, want %d", s.Seen(), 100*cap)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 3.5 {
			t.Fatalf("Quantile(%v) = %v, want 3.5", q, got)
		}
	}
	if got := s.Mean(); got != 3.5 {
		t.Fatalf("Mean = %v, want 3.5", got)
	}
}

func TestReservoirStaysInRange(t *testing.T) {
	// Feed an increasing ramp through a small reservoir: every retained
	// sample must be one of the inputs, and the quantiles must stay inside
	// the observed range.
	s := NewReservoir(32)
	for i := 1; i <= 10000; i++ {
		s.Add(float64(i))
	}
	for _, v := range s.Samples() {
		if v < 1 || v > 10000 || v != math.Trunc(v) {
			t.Fatalf("retained sample %v not among inputs", v)
		}
	}
	if p50 := s.Quantile(0.5); p50 < 1 || p50 > 10000 {
		t.Fatalf("p50 = %v outside input range", p50)
	}
}

// TestReservoirDeterministic: two reservoirs fed the same sequence,
// three times their capacity, retain the same samples, so quantiles
// reported from a seeded run reproduce exactly.
func TestReservoirDeterministic(t *testing.T) {
	const cap = 512
	a, b := NewReservoir(cap), NewReservoir(cap)
	for i := 0; i < 3*cap; i++ {
		v := float64((i * 7919) % (3 * cap))
		a.Add(v)
		b.Add(v)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if qa, qb := a.Quantile(q), b.Quantile(q); qa != qb {
			t.Errorf("q%.2f: %v vs %v", q, qa, qb)
		}
	}
	replaced := 0
	for i, v := range a.Samples() {
		if v != float64((i*7919)%(3*cap)) {
			replaced++
		}
	}
	if replaced == 0 {
		t.Fatal("reservoir never replaced a sample: the test exercised no subsampling")
	}
}

func TestReservoirSamplesIsACopy(t *testing.T) {
	s := NewReservoir(8)
	s.Add(1)
	got := s.Samples()
	got[0] = 999
	if s.Quantile(0.5) == 999 {
		t.Fatal("Samples() exposed the internal buffer")
	}
}

func TestReservoirUnboundedZeroValue(t *testing.T) {
	var s Reservoir
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	if s.N() != 100 {
		t.Fatalf("unbounded zero value retained %d, want 100", s.N())
	}
}

// TestReservoirResetMatchesNew: a used reservoir, reset, samples the next
// stream exactly as a fresh one does, past its capacity where the sampling
// generator decides which samples stay.
func TestReservoirResetMatchesNew(t *testing.T) {
	used := NewReservoir(8)
	for i := 0; i < 50; i++ {
		used.Add(float64(i))
	}
	_ = used.Quantile(0.5) // leaves the retained samples sorted
	used.Reset()
	if used.N() != 0 || used.Seen() != 0 {
		t.Fatalf("reset reservoir: N=%d Seen=%d, want 0/0", used.N(), used.Seen())
	}
	fresh := NewReservoir(8)
	for i := 0; i < 40; i++ {
		v := float64(100 + 7*i%13)
		used.Add(v)
		fresh.Add(v)
	}
	if a, b := used.Samples(), fresh.Samples(); !slices.Equal(a, b) || used.Seen() != fresh.Seen() {
		t.Fatalf("reset reservoir holds %v (seen %d), fresh one %v (seen %d)", a, used.Seen(), b, fresh.Seen())
	}
	for _, q := range []float64{0, 0.5, 0.99} {
		if a, b := used.Quantile(q), fresh.Quantile(q); a != b {
			t.Fatalf("q%.2f: reset %v, fresh %v", q, a, b)
		}
	}
}
