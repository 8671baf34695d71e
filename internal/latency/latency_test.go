package latency

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"aegaeon/internal/model"
)

func mustModel(t *testing.T, name string) *model.Model {
	t.Helper()
	m, err := model.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// §5.1 / Fig. 7 anchor: an unoptimized 13B engine initialization takes
// ~26.9 seconds, with the naive weight load achieving only 2.83 GB/s.
func TestNaiveInitAnchor13B(t *testing.T) {
	cm := NewCostModel(H800(), mustModel(t, "LLaMA-13B"), 1)
	got := cm.NaiveInit().Seconds()
	if math.Abs(got-26.9) > 0.5 {
		t.Errorf("13B naive init = %.2fs, paper reports ~26.9s", got)
	}
}

// Fig. 7 anchor: loading LLaMA-13B at TP=2 over the naive path takes ~4.6 s.
func TestNaiveLoadAnchor13BTP2(t *testing.T) {
	cm := NewCostModel(H800(), mustModel(t, "LLaMA-13B"), 2)
	got := cm.NaiveLoad().Seconds()
	if math.Abs(got-4.6) > 0.2 {
		t.Errorf("13B TP2 naive load = %.2fs, paper reports ~4.6s", got)
	}
}

// §4.2 anchor: an optimized 13B switch is comparable to a prefill batch
// (sub-second at TP=2, ~1.3 s at TP=1 given the 0.625 PCIe efficiency).
func TestSwitchAnchor(t *testing.T) {
	m13 := mustModel(t, "LLaMA-13B")
	tp2 := NewCostModel(H800(), m13, 2).Switch()
	if tp2 >= time.Second {
		t.Errorf("13B TP2 switch = %v, want < 1s", tp2)
	}
	tp1 := NewCostModel(H800(), m13, 1).Switch()
	if tp1 != 2*tp2 {
		t.Errorf("switch time must halve with TP=2: tp1=%v tp2=%v", tp1, tp2)
	}
	if math.Abs(tp1.Seconds()-1.3) > 0.05 {
		t.Errorf("13B TP1 switch = %v, want ~1.3s (26GB / (32GB/s · 0.625))", tp1)
	}
}

// §4.2 anchor: prefill batches regularly complete below one second.
func TestPrefillUnderOneSecond(t *testing.T) {
	for _, name := range []string{"Qwen-7B", "LLaMA-13B"} {
		cm := NewCostModel(H800(), mustModel(t, name), 1)
		if got := cm.Prefill(2048); got >= time.Second {
			t.Errorf("%s prefill(2048) = %v, want < 1s", name, got)
		}
	}
}

// §4.3 anchor: a decode step takes tens of milliseconds (the worked example
// uses 25 ms) and is far below the 100 ms TBT target.
func TestDecodeStepAnchor(t *testing.T) {
	cm := NewCostModel(H800(), mustModel(t, "Qwen-7B"), 1)
	got := cm.DecodeStep(16 * 1024) // a well-packed batch
	if got < 5*time.Millisecond || got > 50*time.Millisecond {
		t.Errorf("7B decode step = %v, want tens of milliseconds", got)
	}
	if got >= 100*time.Millisecond {
		t.Errorf("7B decode step %v exceeds the 100ms TBT target", got)
	}
}

// The Eq. 5 functional form with the derived coefficients must reproduce
// Prefill exactly.
func TestEq5FormMatchesPrefill(t *testing.T) {
	cm := NewCostModel(H800(), mustModel(t, "Qwen-7B"), 1)
	c1, c2, c3, _, _ := cm.Coefficients()
	h := float64(cm.Model.Hidden)
	mm := float64(cm.Model.FFN)
	b := float64(cm.Prof.FlashBlock)
	for _, lens := range [][]int{{100}, {512, 512}, {2048, 100, 700}} {
		tt, t2 := 0.0, 0.0
		for _, l := range lens {
			tt += float64(l)
			t2 += float64(l) * float64(l)
		}
		want := c1*(4*tt*h*h+2*tt*h*mm) + c2*(3*h*t2/b) + c3
		got := cm.Prefill(lens...).Seconds()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Prefill(%v) = %.9f, Eq.5 form = %.9f", lens, got, want)
		}
	}
}

// The Eq. 6 functional form with the derived coefficients must reproduce
// DecodeStep exactly.
func TestEq6FormMatchesDecode(t *testing.T) {
	cm := NewCostModel(H800(), mustModel(t, "LLaMA-13B"), 1)
	_, _, _, c4, c5 := cm.Coefficients()
	h := float64(cm.Model.Hidden)
	mm := float64(cm.Model.FFN)
	for _, ctx := range []int64{0, 100, 10_000, 200_000} {
		want := c4*(4*h*h+2*h*mm) + c5*3*h*float64(ctx)
		got := cm.DecodeStep(ctx).Seconds()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("DecodeStep(%d) = %.9f, Eq.6 form = %.9f", ctx, got, want)
		}
	}
}

// DecodeStep's cached Eq. 6 terms must give the very durations the formula
// gives when it derives both coefficients on every call, for every catalog
// model on every GPU profile at TP 1, 2 and 4.
func TestDecodeStepCachedTermsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []*Profile{H800(), A10(), H20()} {
		for _, m := range model.Catalog() {
			for _, tp := range []int{1, 2, 4} {
				cm := NewCostModel(p, m, tp)
				h, mm := float64(m.Hidden), float64(m.FFN)
				for i := 0; i < 200; i++ {
					ctx := rng.Int63n(1 << 20)
					if i == 0 {
						ctx = 0
					}
					want := secs(cm.eq6C4()*(4*h*h+2*h*mm) + cm.eq6C5()*3*h*float64(ctx))
					if got := cm.DecodeStep(ctx); got != want {
						t.Fatalf("%s on %s at TP %d: DecodeStep(%d) = %d ns, formula %d ns",
							m.Name, p.Name, tp, ctx, got, want)
					}
				}
			}
		}
	}
}

func TestPrefillMonotonicInTokens(t *testing.T) {
	cm := NewCostModel(H800(), mustModel(t, "Qwen-7B"), 1)
	prop := func(a, b uint16) bool {
		la, lb := int(a%8192)+1, int(b%8192)+1
		if la > lb {
			la, lb = lb, la
		}
		return cm.Prefill(la) <= cm.Prefill(lb)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMonotonicInContext(t *testing.T) {
	cm := NewCostModel(H800(), mustModel(t, "Qwen-7B"), 1)
	prop := func(a, b uint32) bool {
		ca, cb := int64(a%1_000_000), int64(b%1_000_000)
		if ca > cb {
			ca, cb = cb, ca
		}
		return cm.DecodeStep(ca) <= cm.DecodeStep(cb)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Bigger models must be slower at every operation, all else equal.
func TestBiggerModelSlower(t *testing.T) {
	small := NewCostModel(H800(), mustModel(t, "Qwen-7B"), 1)
	big := NewCostModel(H800(), mustModel(t, "Qwen-72B"), 1)
	if small.Prefill(1000) >= big.Prefill(1000) {
		t.Error("72B prefill not slower than 7B")
	}
	if small.DecodeStep(1000) >= big.DecodeStep(1000) {
		t.Error("72B decode step not slower than 7B")
	}
	if small.Switch() >= big.Switch() {
		t.Error("72B switch not slower than 7B")
	}
}

// TP must speed up compute (sub-linearly) and strictly reduce switch time.
func TestTPSpeedup(t *testing.T) {
	m := mustModel(t, "Qwen-72B")
	tp1 := NewCostModel(H800(), m, 1)
	tp4 := NewCostModel(H800(), m, 4)
	if tp4.Prefill(1000) >= tp1.Prefill(1000) {
		t.Error("TP=4 prefill not faster than TP=1")
	}
	if tp4.DecodeStep(1000) >= tp1.DecodeStep(1000) {
		t.Error("TP=4 decode not faster than TP=1")
	}
	r := tp1.Switch().Seconds() / tp4.Switch().Seconds()
	if math.Abs(r-4) > 1e-9 {
		t.Errorf("switch speedup at TP=4 = %.3f, want exactly 4 (parallel links)", r)
	}
}

func TestA10SlowerThanH800(t *testing.T) {
	m := mustModel(t, "Qwen-7B")
	a10 := NewCostModel(A10(), m, 1)
	h800 := NewCostModel(H800(), m, 1)
	if a10.Prefill(2048) <= h800.Prefill(2048) {
		t.Error("A10 prefill not slower than H800")
	}
	if a10.DecodeStep(8192) <= h800.DecodeStep(8192) {
		t.Error("A10 decode not slower than H800")
	}
}

func TestProfileByName(t *testing.T) {
	for _, n := range []string{"H800", "A10", "H20", "H800-80GB"} {
		if _, err := ProfileByName(n); err != nil {
			t.Errorf("ProfileByName(%q): %v", n, err)
		}
	}
	if _, err := ProfileByName("V100"); err == nil {
		t.Error("ProfileByName on unknown GPU returned nil error")
	}
}

func TestPrefillEmptyBatch(t *testing.T) {
	cm := NewCostModel(H800(), mustModel(t, "Qwen-7B"), 1)
	if got := cm.Prefill(); got != 0 {
		t.Errorf("Prefill() with no requests = %v, want 0", got)
	}
}

func TestNewCostModelPanicsOnBadTP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCostModel with tp=0 did not panic")
		}
	}()
	NewCostModel(H800(), mustModel(t, "Qwen-7B"), 0)
}

func TestOnDeviceCopyFast(t *testing.T) {
	cm := NewCostModel(H800(), mustModel(t, "Qwen-7B"), 1)
	// §5.2: compacting a prefetched model is a "cheap on-device copy" —
	// far below the PCIe path.
	onDev := cm.OnDeviceCopy(cm.Model.WeightBytes())
	if onDev >= cm.Switch()/10 {
		t.Errorf("on-device copy %v not ≪ PCIe switch %v", onDev, cm.Switch())
	}
}

func TestPCIeCopySymmetric(t *testing.T) {
	p := H800()
	d1 := p.PCIeCopy(1 << 30)
	d2 := p.PCIeCopy(2 << 30)
	if d2 != 2*d1 {
		t.Errorf("PCIeCopy not linear: %v vs %v", d1, d2)
	}
}
