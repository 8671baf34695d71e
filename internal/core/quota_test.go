package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"aegaeon/internal/engine"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

// The worked example of §4.3: three batches, d=0.1s, t_i=0.025s, c=3s,
// QMAX=3s. Then n_i=4, α = 3/(4·3) + 3/4 = 1, and q_i = 3/(4·(1−3/4)) = 3s.
// Executing each batch for 3 s decodes 120 tokens; outputting 120 tokens at
// 0.1 s intervals takes exactly the 12 s round, so all deadlines are met.
func TestEq2WorkedExample(t *testing.T) {
	q, rd := eq2Quotas(nil, 3, 3, uniform(0.1, 3), []float64{0.025, 0.025, 0.025})
	alpha := rd.alpha
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
	q, rd := eq2Quotas(nil, 0.05, 4, uniform(0.1, 1), []float64{0.02})
	alpha := rd.alpha
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
		q, rd := eq2Quotas(nil, c, qmax, uniform(d, 2), []float64{t1, t2})
		alpha := rd.alpha
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
		q, rd := eq2Quotas(nil, c, 4, uniform(d, len(steps)), steps)
		alpha := rd.alpha
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
	q1, _ := eq2Quotas(nil, 1, 8, uniform(0.1, 2), steps)
	q2, _ := eq2Quotas(nil, 2, 8, uniform(0.1, 2), steps)
	for i := range q1 {
		if q2[i] < q1[i] {
			t.Fatalf("q[%d] decreased with higher c: %v -> %v", i, q1[i], q2[i])
		}
	}
}

// Heterogeneous SLO extension: a batch with a tighter TBT must receive at
// least as large a quota (its n_i is smaller).
func TestEq2HeterogeneousDeadlines(t *testing.T) {
	q, _ := eq2Quotas(nil, 2, 8, []float64{0.05, 0.2}, []float64{0.025, 0.025})
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
	wantC := math.Float64bits(d.round.c)
	want := make([]time.Duration, len(d.workList))
	for i, b := range d.workList {
		want[i] = b.quota
	}
	for rep := 0; rep < 300; rep++ {
		d.computeQuotas()
		if got := math.Float64bits(d.round.c); got != wantC {
			t.Fatalf("rep %d: c = %v, first computed %v", rep, d.round.c, math.Float64frombits(wantC))
		}
		for i, b := range d.workList {
			if b.quota != want[i] {
				t.Fatalf("rep %d: quota[%d] = %d ns, first computed %d ns", rep, i, b.quota, want[i])
			}
		}
	}
	// The round's t_k, d_k and q_k live on the instance and are refilled in
	// place, so a multi-model round allocates nothing.
	if n := testing.AllocsPerRun(100, d.computeQuotas); n != 0 {
		t.Errorf("computeQuotas allocates %v times per round, want 0", n)
	}
}

// FuzzEq2Quotas checks Eqs. 2–3 on arbitrary rounds of up to 16 batches:
// every quota is a non-negative number, α is at least max(0.5, Σ_k 1/n_k),
// and appending into a reused non-empty buffer leaves its contents alone and
// gives quotas bit-identical to a nil one. Overheads are positive: a round
// with c = 0 has no Eq. 2 quotas, and its caller turns it into QMAX turns.
func FuzzEq2Quotas(f *testing.F) {
	f.Add(uint16(3000), uint16(3000), []byte{100, 25, 100, 25, 100, 25})
	f.Add(uint16(50), uint16(4000), []byte{100, 20})
	f.Add(uint16(800), uint16(4000), []byte{50, 25, 200, 25, 30, 90})
	f.Fuzz(func(t *testing.T, cMs, qmaxMs uint16, batches []byte) {
		if len(batches) < 2 || len(batches) > 32 {
			return
		}
		c := float64(cMs)/1000 + 1e-3 // seconds
		qmax := float64(qmaxMs)/1000 + 1e-3
		var d, steps []float64
		for i := 0; i+1 < len(batches); i += 2 {
			d = append(d, float64(batches[i])/1000+1e-3) // 1–256 ms
			steps = append(steps, float64(batches[i+1])/1000+1e-3)
		}
		q, r := eq2Quotas(nil, c, qmax, d, steps)
		if len(q) != len(d) {
			t.Fatalf("%d quotas for %d batches", len(q), len(d))
		}
		for i, qi := range q {
			if !(qi >= 0) || math.IsInf(qi, 0) {
				t.Fatalf("q[%d] = %v", i, qi)
			}
		}
		sumInv := 0.0
		for i := range d {
			sumInv += 1 / max(d[i]/steps[i], 1.01)
		}
		if r.alpha < max(0.5, sumInv) {
			t.Fatalf("alpha = %v < max(0.5, Σ1/n_k = %v)", r.alpha, sumInv)
		}
		dst := append(make([]float64, 0, 40), -1, math.NaN(), 7)
		got, r2 := eq2Quotas(dst, c, qmax, d, steps)
		if len(got) != 3+len(q) || got[0] != -1 || !math.IsNaN(got[1]) || got[2] != 7 {
			t.Fatalf("appending into %v gave %v", dst[:3], got)
		}
		for i, qi := range q {
			if math.Float64bits(got[3+i]) != math.Float64bits(qi) {
				t.Fatalf("reused buffer: q[%d] = %v, nil buffer %v", i, got[3+i], qi)
			}
		}
		if r2 != r {
			t.Fatalf("reused buffer: round %+v, nil buffer %+v", r2, r)
		}
	})
}

func TestEq2LengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	eq2Quotas(nil, 1, 4, []float64{0.1}, []float64{0.02, 0.02})
}

// uniform returns a slice of n copies of v (the paper's single-SLO case).
func uniform(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestFixedQuotaEveryTurn: Config.FixedQuota promises every batch a flat
// QMAX turn, including the batches admitted mid-round, which a round with
// no Eq. 2 parameters would otherwise leave at the quota floors.
func TestFixedQuotaEveryTurn(t *testing.T) {
	models := model.MarketMix(8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	trace := workload.PoissonTrace(rand.New(rand.NewSource(3)), names, 0.2, 300*time.Second, workload.ShareGPT())
	cfg := testConfig(models, engine.AllOptimizations(), 1, 2)
	cfg.FixedQuota = true
	turns, short := 0, 0
	defer func(hook func(*decodeInstance, string, *dbatch)) { dbgTurn = hook }(dbgTurn)
	dbgTurn = func(d *decodeInstance, ev string, b *dbatch) {
		if ev != "turn-prep" {
			return
		}
		turns++
		if b.quota != d.sys.cfg.QMax {
			short++
		}
	}
	runTrace(t, cfg, trace)
	if turns == 0 {
		t.Fatal("no decode turns ran")
	}
	if short > 0 {
		t.Errorf("%d of %d turns ran below QMAX under FixedQuota", short, turns)
	}
}
