package slo

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultTargets(t *testing.T) {
	s := Default()
	if s.TTFT != 10*time.Second || s.TBT != 100*time.Millisecond {
		t.Fatalf("default SLO = %v, want §7.1's 10s/100ms", s)
	}
}

func TestScale(t *testing.T) {
	s := Default().Scale(0.2)
	if s.TTFT != 2*time.Second || s.TBT != 20*time.Millisecond {
		t.Fatalf("0.2x SLO = %v, want Fig. 13's strictest 2s/20ms", s)
	}
	if got := Default().ScaleTBT(0.5).TBT; got != 50*time.Millisecond {
		t.Fatalf("ScaleTBT(0.5) TBT = %v", got)
	}
	if got := Default().ScaleTBT(0.5).TTFT; got != 10*time.Second {
		t.Fatal("ScaleTBT changed TTFT")
	}
	if got := Default().ScaleTTFT(2).TTFT; got != 20*time.Second {
		t.Fatalf("ScaleTTFT(2) TTFT = %v", got)
	}
}

func TestDeadlineFormula(t *testing.T) {
	s := SLO{TTFT: time.Second, TBT: 100 * time.Millisecond}
	arrival := 5 * time.Second
	if got := s.Deadline(arrival, 0); got != 6*time.Second {
		t.Fatalf("token-0 deadline = %v", got)
	}
	if got := s.Deadline(arrival, 10); got != 7*time.Second {
		t.Fatalf("token-10 deadline = %v", got)
	}
}

func TestBufferedOutputSemantics(t *testing.T) {
	// Fig. 3: tokens generated early bank slack. A request that produces
	// tokens 0..9 instantly and then stalls 900ms before token 10 still
	// meets every deadline (10 tokens x 100ms of banked slack).
	s := SLO{TTFT: time.Second, TBT: 100 * time.Millisecond}
	tr := NewTracker()
	times := make([]time.Duration, 11)
	for i := 0; i <= 9; i++ {
		times[i] = 500 * time.Millisecond // all early
	}
	times[10] = 500*time.Millisecond + 900*time.Millisecond
	tr.Add(Judge(s, 0, times))
	if tr.Attainment() != 1 {
		t.Fatalf("attainment = %.3f, want 1 (buffered output hides stall)", tr.Attainment())
	}
}

func TestLateFirstTokenViolates(t *testing.T) {
	s := SLO{TTFT: time.Second, TBT: 100 * time.Millisecond}
	tr := NewTracker()
	tr.Add(Judge(s, 0, []time.Duration{1500 * time.Millisecond}))
	if tr.Attainment() != 0 {
		t.Fatalf("attainment = %.3f, want 0", tr.Attainment())
	}
	if tr.TTFTAttainment() != 0 {
		t.Fatalf("TTFT attainment = %.3f, want 0", tr.TTFTAttainment())
	}
}

func TestMixedAttainment(t *testing.T) {
	s := SLO{TTFT: time.Second, TBT: 100 * time.Millisecond}
	tr := NewTracker()
	// 3 tokens: deadlines at 1.0, 1.1, 1.2. Times: 0.9 (met), 1.05 (met),
	// 1.5 (missed).
	tr.Add(Judge(s, 0, []time.Duration{
		900 * time.Millisecond, 1050 * time.Millisecond, 1500 * time.Millisecond}))
	if got := tr.Attainment(); got < 0.66 || got > 0.67 {
		t.Fatalf("attainment = %.3f, want 2/3", got)
	}
	if tr.RequestAttainment() != 0 {
		t.Fatal("request with a missed token counted as fully attained")
	}
	met, missed := tr.Tokens()
	if met != 2 || missed != 1 {
		t.Fatalf("tokens = %d met, %d missed", met, missed)
	}
}

func TestObserveDropped(t *testing.T) {
	tr := NewTracker()
	v := Judge(Default(), 0, nil)
	v.Dropped = 2
	tr.Add(v)
	if tr.Attainment() != 0 {
		t.Fatalf("dropped request attainment = %.3f, want 0", tr.Attainment())
	}
	if met, missed := tr.Tokens(); met != 0 || missed != 2 {
		t.Fatalf("tokens = %d met, %d missed, want 0/2", met, missed)
	}
	// Dropped tokens are tokens of the request, not requests of their own.
	if tr.Requests() != 1 {
		t.Fatalf("requests = %d, want 1", tr.Requests())
	}
}

func TestEmptyTrackerIsPerfect(t *testing.T) {
	tr := NewTracker()
	if tr.Attainment() != 1 || tr.RequestAttainment() != 1 || tr.TTFTAttainment() != 1 {
		t.Fatal("empty tracker must report 1.0 attainment")
	}
	if tr.MeanTTFT() != 0 {
		t.Fatal("empty tracker MeanTTFT != 0")
	}
}

func TestMeanTTFT(t *testing.T) {
	s := Default()
	tr := NewTracker()
	tr.Add(Judge(s, time.Second, []time.Duration{3 * time.Second}))
	tr.Add(Judge(s, time.Second, []time.Duration{5 * time.Second}))
	if got := tr.MeanTTFT(); got != 3*time.Second {
		t.Fatalf("mean TTFT = %v, want 3s", got)
	}
}

// Property: attainment is always in [0,1], and shifting all token times
// earlier never decreases attainment.
func TestAttainmentMonotoneProperty(t *testing.T) {
	s := SLO{TTFT: time.Second, TBT: 100 * time.Millisecond}
	prop := func(offsets []uint16, shiftMs uint8) bool {
		times := make([]time.Duration, len(offsets))
		for i, o := range offsets {
			times[i] = time.Duration(o) * time.Millisecond * 4
		}
		shifted := make([]time.Duration, len(times))
		for i := range times {
			d := times[i] - time.Duration(shiftMs)*time.Millisecond
			if d < 0 {
				d = 0
			}
			shifted[i] = d
		}
		t1, t2 := NewTracker(), NewTracker()
		t1.Add(Judge(s, 0, times))
		t2.Add(Judge(s, 0, shifted))
		a1, a2 := t1.Attainment(), t2.Attainment()
		return a1 >= 0 && a1 <= 1 && a2 >= a1-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTTFTQuantiles(t *testing.T) {
	s := Default()
	tr := NewTracker()
	for i := 1; i <= 100; i++ {
		tr.Add(Judge(s, 0, []time.Duration{time.Duration(i) * time.Second}))
	}
	if p50 := tr.TTFTQuantile(0.5); p50 < 50*time.Second || p50 > 51*time.Second {
		t.Fatalf("p50 TTFT = %v", p50)
	}
	if p99 := tr.TTFTQuantile(0.99); p99 < 99*time.Second-time.Millisecond {
		t.Fatalf("p99 TTFT = %v", p99)
	}
	if NewTracker().TTFTQuantile(0.5) != 0 {
		t.Fatal("empty tracker quantile != 0")
	}
}

// TestObserveRequestDoesNotRetainTimes: Judge reads times without modifying
// it, and overwriting the slice afterwards changes nothing the tracker
// reports, so a caller may pass a buffer it keeps writing.
func TestObserveRequestDoesNotRetainTimes(t *testing.T) {
	s := Default()
	tr := NewTracker()
	var bufs [][]time.Duration
	for i := 0; i < 50; i++ {
		times := make([]time.Duration, 1+i%7)
		for k := range times {
			// Every fifth request misses its first deadline.
			times[k] = time.Duration(i%5*3+k) * time.Second
		}
		want := append([]time.Duration(nil), times...)
		tr.Add(Judge(s, 0, times))
		for k := range times {
			if times[k] != want[k] {
				t.Fatalf("request %d: Judge modified times[%d]: %v, want %v", i, k, times[k], want[k])
			}
		}
		bufs = append(bufs, times)
	}
	type view struct {
		att, reqAtt, ttftAtt float64
		met, missed          uint64
		mean, p50, p99       time.Duration
	}
	read := func(tr *Tracker) view {
		met, missed := tr.Tokens()
		return view{tr.Attainment(), tr.RequestAttainment(), tr.TTFTAttainment(), met, missed,
			tr.MeanTTFT(), tr.TTFTQuantile(0.5), tr.TTFTQuantile(0.99)}
	}
	before := read(tr)
	if before.missed == 0 || before.met == 0 {
		t.Fatalf("want both met and missed tokens, got %+v", before)
	}
	for _, times := range bufs {
		for k := range times {
			times[k] = time.Hour
		}
	}
	if after := read(tr); after != before {
		t.Fatalf("tracker changed after its inputs were overwritten:\n got %+v\nwant %+v", after, before)
	}
}

// TestTrackerConcurrent verifies the Tracker itself under concurrent
// observation and reads (the live gateway reads attainment while the
// simulation goroutine observes).
func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker()
	s := Default()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Add(Judge(s, 0, []time.Duration{time.Duration(i) * time.Millisecond}))
				_ = tr.Attainment()
				_ = tr.TTFTQuantile(0.99)
				_ = tr.MeanTTFT()
			}
		}()
	}
	wg.Wait()
	if tr.Requests() != 4000 {
		t.Fatalf("requests = %d, want 4000", tr.Requests())
	}
}

// TestTrackerTTFTQuantileBounded checks that the reservoir-backed quantile
// stays sane far past the retention cap.
func TestTrackerTTFTQuantileBounded(t *testing.T) {
	tr := NewTracker()
	s := Default()
	// 3x the reservoir cap, all TTFTs exactly 1s: any reservoir subsample
	// still yields exactly 1s at every quantile.
	for i := 0; i < 3*maxTTFTSamples; i++ {
		tr.Add(Judge(s, 0, []time.Duration{time.Second}))
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := tr.TTFTQuantile(q); got != time.Second {
			t.Fatalf("TTFTQuantile(%v) = %v, want 1s", q, got)
		}
	}
}
