package slomon

import (
	"math/rand"
	"testing"
	"time"
)

// fiveSecondWindows gives a ring retaining five 1s buckets.
var fiveSecondWindows = [numWindows]time.Duration{time.Second, 2 * time.Second, 5 * time.Second}

func TestWindowRingBasics(t *testing.T) {
	w := newWindowRing(time.Second, [numWindows]time.Duration{time.Second, 5 * time.Second, 10 * time.Second})
	w.observe(500*time.Millisecond, true)
	w.observe(700*time.Millisecond, false)
	met, missed := w.sums(slowWin)
	if met != 1 || missed != 1 {
		t.Fatalf("sums = %d/%d, want 1/1", met, missed)
	}
	// A second bucket; narrow window excludes the first.
	w.observe(1500*time.Millisecond, true)
	met, missed = w.sums(fastWin)
	if met != 1 || missed != 0 {
		t.Fatalf("1s sums = %d/%d, want 1/0", met, missed)
	}
	met, missed = w.sums(slowWin)
	if met != 2 || missed != 1 {
		t.Fatalf("10s sums = %d/%d, want 2/1", met, missed)
	}
}

func TestWindowRingAdvanceZeroesGap(t *testing.T) {
	w := newWindowRing(time.Second, fiveSecondWindows)
	w.observe(0, false)
	// Jump far past the retained span: all old counts must evict.
	w.advance(100 * time.Second)
	if met, missed := w.sums(slowWin); met != 0 || missed != 0 {
		t.Fatalf("after long gap sums = %d/%d, want 0/0", met, missed)
	}
	// A gap shorter than the ring only evicts the skipped span.
	w.observe(100*time.Second, true)
	w.advance(102 * time.Second)
	if met, _ := w.sums(slowWin); met != 1 {
		t.Fatalf("short gap evicted live bucket: met = %d", met)
	}
}

func TestWindowRingLateObservationClamps(t *testing.T) {
	w := newWindowRing(time.Second, fiveSecondWindows)
	w.advance(20 * time.Second)
	// A write far behind the retained span must still be counted (clamped
	// into the oldest bucket), not silently dropped.
	w.observe(2*time.Second, false)
	if _, missed := w.sums(slowWin); missed != 1 {
		t.Fatalf("late observation lost: missed = %d, want 1", missed)
	}
	// But it ages out once the head moves past the oldest bucket.
	w.advance(26 * time.Second)
	if _, missed := w.sums(slowWin); missed != 0 {
		t.Fatalf("late observation should have aged out: missed = %d", missed)
	}
}

func TestWindowRingNeverGoesBackward(t *testing.T) {
	w := newWindowRing(time.Second, fiveSecondWindows)
	w.observe(10*time.Second, true)
	w.advance(3 * time.Second) // stale advance: no-op
	if w.head != 10 {
		t.Fatalf("head moved backward to %d", w.head)
	}
}

// scanSums is the reference for the ring's running window sums: a scan of
// the most recent window of buckets ending at the head.
func scanSums(w *windowRing, window time.Duration) (met, missed uint64) {
	if w.head < 0 {
		return 0, 0
	}
	k := int(window / w.width)
	if k < 1 {
		k = 1
	}
	if k > len(w.met) {
		k = len(w.met)
	}
	for i := 0; i < k; i++ {
		s := w.slot(w.head - int64(i))
		met += w.met[s]
		missed += w.missed[s]
	}
	return met, missed
}

// TestWindowRingRunningSumsMatchScan drives seeded random observe/advance
// sequences — late writes inside the span, writes clamped into the oldest
// bucket, stale advances, and gaps shorter and longer than the span — and
// checks after every step that each window's running sums equal a scan.
func TestWindowRingRunningSumsMatchScan(t *testing.T) {
	ms := time.Millisecond
	rings := []struct {
		width   time.Duration
		windows [numWindows]time.Duration
	}{
		{time.Second, [numWindows]time.Duration{3 * time.Second, 7 * time.Second, 12 * time.Second}},
		{time.Second, [numWindows]time.Duration{time.Second, time.Second, time.Second}},
		{250 * ms, [numWindows]time.Duration{1000 * ms, 2600 * ms, 4 * time.Second}},
		{time.Second, [numWindows]time.Duration{0, 5 * time.Second, 5 * time.Second}},
	}
	for ri, rc := range rings {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := newWindowRing(rc.width, rc.windows)
			span := time.Duration(len(w.met)) * rc.width
			var now time.Duration
			for step := 0; step < 500; step++ {
				var op string
				switch r := rng.Intn(10); {
				case r < 5:
					op = "observe"
					at := now + time.Duration(rng.Int63n(int64(3*rc.width/2)))
					w.observe(at, rng.Intn(4) > 0)
					now = max(now, at)
				case r < 7:
					op = "late observe"
					at := max(now-time.Duration(rng.Int63n(int64(2*span))), 0)
					w.observe(at, rng.Intn(2) == 0)
				case r < 8:
					op = "short gap"
					now += time.Duration(rng.Int63n(int64(span)))
					w.advance(now)
				case r < 9:
					op = "long gap"
					now += span + time.Duration(rng.Int63n(int64(span)))
					w.advance(now)
				default:
					op = "stale advance"
					w.advance(max(now-time.Duration(rng.Int63n(int64(span))), 0))
				}
				for i, d := range rc.windows {
					gm, gx := w.sums(i)
					wm, wx := scanSums(w, d)
					if gm != wm || gx != wx {
						t.Fatalf("ring %d seed %d step %d (%s): window %s sums %d/%d, scan %d/%d",
							ri, seed, step, op, windowNames[i], gm, gx, wm, wx)
					}
				}
			}
		}
	}
}

func TestEpochSketchRotation(t *testing.T) {
	e := newEpochSketch(10*time.Second, 100)
	e.add(time.Second, 100*time.Millisecond)
	e.add(2*time.Second, 200*time.Millisecond)
	if got := e.merged().N(); got != 2 {
		t.Fatalf("samples = %d, want 2", got)
	}
	// Next epoch: old samples survive in prev.
	e.add(11*time.Second, 300*time.Millisecond)
	if got := e.merged().N(); got != 3 {
		t.Fatalf("after rotate samples = %d, want 3 (prev retained)", got)
	}
	// Two epochs later: everything before the gap is gone.
	e.add(35*time.Second, 400*time.Millisecond)
	if got := e.merged().N(); got != 1 {
		t.Fatalf("after gap samples = %d, want 1", got)
	}
}

func TestBurnRateFormula(t *testing.T) {
	// 2% misses against a 1% budget burns at 2x.
	if got := burnRate(98, 2, 0.99); got < 1.99 || got > 2.01 {
		t.Fatalf("burn = %v, want 2", got)
	}
	if got := burnRate(0, 0, 0.99); got != 0 {
		t.Fatalf("empty burn = %v, want 0", got)
	}
	// All misses: burn = 1/budget.
	if got := burnRate(0, 10, 0.9); got < 9.99 || got > 10.01 {
		t.Fatalf("all-miss burn = %v, want 10", got)
	}
}
