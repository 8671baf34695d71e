package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestCDFQuantiles(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("q1 = %v", got)
	}
	if got := c.Quantile(0.5); math.Abs(got-50.5) > 0.01 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := c.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) {
		t.Error("empty CDF must return NaN")
	}
	if c.FractionBelow(10) != 0 {
		t.Error("empty FractionBelow != 0")
	}
	if c.Points(5) != nil {
		t.Error("empty Points != nil")
	}
}

func TestCDFFractionBelow(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 3, 4} {
		c.Add(v)
	}
	if got := c.FractionBelow(2); got != 0.5 {
		t.Errorf("FractionBelow(2) = %v, want 0.5 (inclusive)", got)
	}
	if got := c.FractionBelow(0.5); got != 0 {
		t.Errorf("FractionBelow(0.5) = %v", got)
	}
	if got := c.FractionBelow(4); got != 1 {
		t.Errorf("FractionBelow(4) = %v", got)
	}
}

func TestCDFAddAfterQuery(t *testing.T) {
	var c CDF
	c.Add(5)
	_ = c.Quantile(0.5)
	c.Add(1) // must re-sort
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 after late add = %v", got)
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	var c CDF
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		c.AddDuration(time.Duration(rng.Int63n(int64(time.Second))))
	}
	pts := c.Points(20)
	if len(pts) != 20 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatal("CDF points not monotone")
		}
	}
}

func TestTimeSeries(t *testing.T) {
	ts := &TimeSeries{}
	for _, v := range []float64{1, 2, 3} {
		ts.Append(v)
	}
	if ts.Mean() != 2 || ts.Max() != 3 {
		t.Fatalf("mean/max = %v/%v", ts.Mean(), ts.Max())
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := &TimeSeries{}
	if !math.IsNaN(ts.Mean()) || !math.IsNaN(ts.Max()) {
		t.Error("empty series must return NaN")
	}
}

func TestBreakdownFractions(t *testing.T) {
	var b Breakdown
	b.Add(PrefillWaiting, time.Second)
	b.Add(PrefillExecution, time.Second)
	b.Add(DecodingExecution, 2*time.Second)
	fr := b.Fractions()
	if math.Abs(fr[PrefillWaiting]-0.25) > 1e-9 {
		t.Errorf("prefill waiting = %v", fr[PrefillWaiting])
	}
	if math.Abs(fr[DecodingExecution]-0.5) > 1e-9 {
		t.Errorf("decode exec = %v", fr[DecodingExecution])
	}
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestBreakdownEmptyAndNegative(t *testing.T) {
	var b Breakdown
	for _, f := range b.Fractions() {
		if f != 0 {
			t.Fatal("empty breakdown non-zero")
		}
	}
	b.Add(DataOverhead, -time.Second) // clamped
	if b.Total(DataOverhead) != 0 {
		t.Fatal("negative time not clamped")
	}
}

func TestStageNames(t *testing.T) {
	if len(Stages()) != int(numStages) {
		t.Fatalf("stage names = %d, want %d", len(Stages()), numStages)
	}
	if PrefillWaiting.String() != "Prefill Waiting" {
		t.Errorf("stage name = %q", PrefillWaiting.String())
	}
}
