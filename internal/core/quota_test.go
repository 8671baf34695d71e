package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"aegaeon/internal/engine"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// The worked example of §4.3: three batches, d=0.1s, t_i=0.025s, c=3s,
// QMAX=3s. Then n_i=4, α = 3/(4·3) + 3/4 = 1, and q_i = 3/(4·(1−3/4)) = 3s.
// Executing each batch for 3 s decodes 120 tokens; outputting 120 tokens at
// 0.1 s intervals takes exactly the 12 s round, so all deadlines are met.
func TestEq2WorkedExample(t *testing.T) {
	q, alpha := eq2Quotas(3, 3, uniform(0.1, 3), []float64{0.025, 0.025, 0.025})
	if math.Abs(alpha-1) > 1e-12 {
		t.Fatalf("alpha = %v, want 1", alpha)
	}
	for i, qi := range q {
		if math.Abs(qi-3) > 1e-9 {
			t.Fatalf("q[%d] = %v, want 3s", i, qi)
		}
	}
	// The schedule's self-consistency: tokens decoded per round (q/t) must
	// cover the round duration (Σq + c) at one token per d.
	roundTime := q[0] + q[1] + q[2] + 3
	tokens := q[0] / 0.025
	if tokens*0.1 < roundTime-1e-9 {
		t.Fatalf("schedule does not keep up: %v tokens vs %vs round", tokens, roundTime)
	}
}

// Eq. 3's floor: with tiny overhead and few fast batches, α clamps to 0.5
// (200% estimated attainment) and quotas shrink.
func TestEq2AlphaFloor(t *testing.T) {
	q, alpha := eq2Quotas(0.05, 4, uniform(0.1, 1), []float64{0.02})
	if alpha != 0.5 {
		t.Fatalf("alpha = %v, want floor 0.5", alpha)
	}
	if q[0] <= 0 {
		t.Fatalf("q = %v", q[0])
	}
}

// When the first operand of Eq. 3's max dominates, q_i never exceeds
// QMAX·min(n)/n_i <= QMAX.
func TestEq2QMaxBound(t *testing.T) {
	prop := func(cRaw, t1Raw, t2Raw uint16) bool {
		c := 0.1 + float64(cRaw%100)/10 // 0.1..10.1
		d := 0.1
		t1 := 0.005 + float64(t1Raw%80)/1000 // 5..85ms
		t2 := 0.005 + float64(t2Raw%80)/1000
		qmax := 4.0
		q, alpha := eq2Quotas(c, qmax, uniform(d, 2), []float64{t1, t2})
		if alpha <= 0 {
			return false
		}
		if alpha > 0.5 { // first operand of max dominates
			for _, qi := range q {
				if qi > qmax+1e-9 {
					return false
				}
			}
		}
		for _, qi := range q {
			if qi < 0 || math.IsNaN(qi) || math.IsInf(qi, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Attainment estimate 1/α: for any valid round, executing each batch for
// its quota decodes q_i/t_i tokens, which must cover at least (1/α) of the
// round at one token per deadline interval d.
func TestEq2CoverageProperty(t *testing.T) {
	prop := func(cRaw uint16, lens []uint8) bool {
		if len(lens) == 0 || len(lens) > 8 {
			return true
		}
		c := 0.2 + float64(cRaw%50)/10
		d := 0.1
		steps := make([]float64, len(lens))
		for i, l := range lens {
			steps[i] = 0.01 + float64(l%70)/1000
		}
		q, alpha := eq2Quotas(c, 4, uniform(d, len(steps)), steps)
		var round float64 = c
		for _, qi := range q {
			round += qi
		}
		for i, qi := range q {
			tokens := qi / steps[i]
			need := round / d / alpha // the 1/α-scaled requirement
			if steps[i] >= d {
				continue // unmeetable batch was clamped; skip coverage check
			}
			if tokens*d*alpha < need*d*alpha-1e-6 {
				_ = i
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Quotas grow with overhead c: amortizing a costlier round needs longer turns.
func TestEq2MonotoneInOverhead(t *testing.T) {
	steps := []float64{0.02, 0.03}
	q1, _ := eq2Quotas(1, 8, uniform(0.1, 2), steps)
	q2, _ := eq2Quotas(2, 8, uniform(0.1, 2), steps)
	for i := range q1 {
		if q2[i] < q1[i] {
			t.Fatalf("q[%d] decreased with higher c: %v -> %v", i, q1[i], q2[i])
		}
	}
}

// Heterogeneous SLO extension: a batch with a tighter TBT must receive at
// least as large a quota (its n_i is smaller).
func TestEq2HeterogeneousDeadlines(t *testing.T) {
	q, _ := eq2Quotas(2, 8, []float64{0.05, 0.2}, []float64{0.025, 0.025})
	if q[0] <= q[1] {
		t.Fatalf("tight-TBT batch quota %v not larger than loose %v", q[0], q[1])
	}
}

// TestComputeQuotasDeterministic: the round's switch overhead c sums one
// effective switch cost per distinct model, so a sum in map iteration order
// could differ in its last ulp between calls — and move a quota clamped at
// QMax by a nanosecond. Recomputing one round many times must give
// bit-identical c and quotas.
func TestComputeQuotasDeterministic(t *testing.T) {
	models := model.MarketMix(12)
	se := sim.NewEngine(1)
	sys := NewSystem(se, testConfig(models, engine.AllOptimizations(), 1, 1))
	d := sys.decodes[0]
	for i, m := range models {
		id := sys.models[m.Name]
		r := &Request{ID: fmt.Sprintf("r%d", i), Model: m, mid: id, InputTokens: 300 + 97*i, OutputTokens: 200}
		d.workList = append(d.workList, &dbatch{mid: id, reqs: []*Request{r}})
	}
	d.computeQuotas()
	wantC := math.Float64bits(d.roundC)
	want := make([]time.Duration, len(d.workList))
	for i, b := range d.workList {
		want[i] = b.quota
	}
	for rep := 0; rep < 300; rep++ {
		d.computeQuotas()
		if got := math.Float64bits(d.roundC); got != wantC {
			t.Fatalf("rep %d: c = %v, first computed %v", rep, d.roundC, math.Float64frombits(wantC))
		}
		for i, b := range d.workList {
			if b.quota != want[i] {
				t.Fatalf("rep %d: quota[%d] = %d ns, first computed %d ns", rep, i, b.quota, want[i])
			}
		}
	}
}

func TestEq2LengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	eq2Quotas(1, 4, []float64{0.1}, []float64{0.02, 0.02})
}
