package slomon

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"aegaeon/internal/sim"
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

// refWindowRing is the reference for windowRing: the ring as it was before
// it cached the head bucket, finding every bucket by division.
type refWindowRing struct {
	width     time.Duration
	met       []uint64
	missed    []uint64
	head      int64
	span      [numWindows]int64
	winMet    [numWindows]uint64
	winMissed [numWindows]uint64
}

func newRefWindowRing(width time.Duration, windows [numWindows]time.Duration) *refWindowRing {
	w := &refWindowRing{width: width, head: -1}
	n := int64(1)
	for i, d := range windows {
		w.span[i] = max(int64(d/width), 1)
		n = max(n, w.span[i])
	}
	w.met = make([]uint64, n)
	w.missed = make([]uint64, n)
	return w
}

func (w *refWindowRing) slot(abs int64) int {
	n := int64(len(w.met))
	return int(((abs % n) + n) % n)
}

func (w *refWindowRing) advance(now sim.Time) {
	abs := int64(now / w.width)
	if w.head < 0 {
		w.head = abs
		return
	}
	if abs <= w.head {
		return
	}
	if abs-w.head >= int64(len(w.met)) {
		clear(w.met)
		clear(w.missed)
		w.winMet, w.winMissed = [numWindows]uint64{}, [numWindows]uint64{}
		w.head = abs
		return
	}
	for w.head < abs {
		w.head++
		for i, k := range w.span {
			s := w.slot(w.head - k)
			w.winMet[i] -= w.met[s]
			w.winMissed[i] -= w.missed[s]
		}
		s := w.slot(w.head)
		w.met[s], w.missed[s] = 0, 0
	}
}

func (w *refWindowRing) observe(at sim.Time, met bool) {
	abs := int64(at / w.width)
	if w.head < 0 || abs > w.head {
		w.advance(at)
		abs = w.head
	}
	if oldest := w.head - int64(len(w.met)) + 1; abs < oldest {
		abs = oldest
	}
	counts, win := w.missed, &w.winMissed
	if met {
		counts, win = w.met, &w.winMet
	}
	counts[w.slot(abs)]++
	for i, k := range w.span {
		if abs > w.head-k {
			win[i]++
		}
	}
}

// FuzzWindowRing drives arbitrary observe/advance sequences through a
// windowRing and the division-based reference ring and checks after every
// step that the heads, every bucket and every window sum agree. The same
// times rotate an epochSketch, whose epoch must match the reference rule.
// Each step is two bytes, op and arg: op%4 picks how the time moves (arg
// nanoseconds forward, arg buckets forward, arg buckets back, or to the
// next eight bytes read as any int64, negative and near-overflow times
// included) and op/4%3 what to do at it (count a met token, count a missed
// one, or advance).
func FuzzWindowRing(f *testing.F) {
	f.Add(uint64(time.Second), uint8(1), uint8(5), uint8(10), []byte{0, 200, 4, 1, 9, 3, 2, 2, 1, 40, 6, 1})
	f.Add(uint64(250*time.Millisecond), uint8(4), uint8(10), uint8(16), []byte{1, 0, 4, 255, 2, 7, 5, 1, 10, 3})
	f.Add(uint64(7), uint8(0), uint8(3), uint8(2),
		append([]byte{3, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0, 1, 4, 9}, 3, 0x80, 0, 0, 0, 0, 0, 0, 3, 8, 1))
	f.Fuzz(func(t *testing.T, width uint64, w0, w1, w2 uint8, ops []byte) {
		wd := time.Duration(1 + width%(1<<40)) // keeps every window and the epoch positive
		windows := [numWindows]time.Duration{wd * time.Duration(w0%32), wd * time.Duration(w1%32), wd * time.Duration(w2%32)}
		w, ref := newWindowRing(wd, windows), newRefWindowRing(wd, windows)
		e := newEpochSketch(3*wd, 4)
		var epoch int64
		started := false
		var at sim.Time
		for step := 0; len(ops) >= 2; step++ {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			switch op % 4 {
			case 0:
				at += sim.Time(arg)
			case 1:
				at += sim.Time(arg) * wd
			case 2:
				at -= sim.Time(arg) * wd
			default:
				if len(ops) < 7 {
					return
				}
				at = sim.Time(binary.BigEndian.Uint64(append([]byte{arg}, ops[:7]...)))
				ops = ops[7:]
			}
			switch op / 4 % 3 {
			case 0:
				w.observe(at, true)
				ref.observe(at, true)
			case 1:
				w.observe(at, false)
				ref.observe(at, false)
			default:
				w.advance(at)
				ref.advance(at)
			}
			if w.head != ref.head || !slices.Equal(w.met, ref.met) || !slices.Equal(w.missed, ref.missed) ||
				w.winMet != ref.winMet || w.winMissed != ref.winMissed {
				t.Fatalf("step %d (op %d at %d): ring head %d buckets %v/%v sums %v/%v; reference head %d buckets %v/%v sums %v/%v",
					step, op, at, w.head, w.met, w.missed, w.winMet, w.winMissed,
					ref.head, ref.met, ref.missed, ref.winMet, ref.winMissed)
			}
			e.rotateTo(at)
			if idx := int64(at / (3 * wd)); !started {
				epoch, started = idx, true
			} else if idx > epoch {
				epoch = idx
			}
			if e.curIdx != epoch {
				t.Fatalf("step %d (at %d): epoch %d, want %d", step, at, e.curIdx, epoch)
			}
		}
	})
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
