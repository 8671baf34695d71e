package slomon

import (
	"math"
	"time"

	"aegaeon/internal/metrics"
	"aegaeon/internal/sim"
)

// Burn-rate window indices: fast, mid, slow.
const (
	fastWin = iota
	midWin
	slowWin
	numWindows
)

var windowNames = [numWindows]string{"fast", "mid", "slow"}

// windowRing is a ring of fixed-width time buckets over the virtual clock,
// holding met/missed token counts. Buckets are addressed by absolute bucket
// index (time / width), so advancing across idle gaps zeroes the skipped
// slots and a snapshot never reads stale counts. Writes older than the
// retained span clamp into the oldest bucket — late observations (e.g.
// Finalize judging never-generated tokens) still land inside the window
// rather than vanishing.
//
// The ring keeps a running met/missed total per burn-rate window: observe
// adds to every window covering the written bucket, and each advance step
// subtracts the bucket leaving each window before its slot is reused, so a
// window sum is a read rather than a scan.
//
// Nearly every write lands in the head bucket, so the ring caches the
// head's slot and time span: a write or advance inside the head bucket
// costs two compares and no division.
type windowRing struct {
	width  time.Duration
	met    []uint64
	missed []uint64
	head   int64 // absolute index of the newest bucket; -1 before first use

	// hslot is the head's slot and [lo, hi) its time span; the span is
	// empty while the head is negative, so every call then takes the
	// general path.
	hslot  int
	lo, hi sim.Time

	// span[i] is window i's length in buckets; winMet[i]/winMissed[i] total
	// the buckets (head-span[i], head].
	span      [numWindows]int64
	winMet    [numWindows]uint64
	winMissed [numWindows]uint64
}

// newWindowRing builds a ring retaining the longest of the windows.
func newWindowRing(width time.Duration, windows [numWindows]time.Duration) *windowRing {
	w := &windowRing{width: width}
	n := int64(1)
	for i, d := range windows {
		w.span[i] = max(int64(d/width), 1)
		n = max(n, w.span[i])
	}
	w.met = make([]uint64, n)
	w.missed = make([]uint64, n)
	w.setHead(-1)
	return w
}

// minTime is the earliest representable virtual time.
const minTime = sim.Time(math.MinInt64)

// bucketSpan returns the span [lo, hi) of bucket idx of the given width, hi
// saturating at the largest time. A negative idx returns an empty span at
// minTime, so no time falls in it and no time lies before its end.
func bucketSpan(idx int64, width time.Duration) (lo, hi sim.Time) {
	if idx < 0 {
		return minTime, minTime
	}
	lo = sim.Time(idx) * width
	if hi = lo + width; hi < lo {
		hi = math.MaxInt64
	}
	return lo, hi
}

// setHead moves the head to bucket abs and refreshes its cached slot and
// span.
func (w *windowRing) setHead(abs int64) {
	w.head, w.hslot = abs, w.slot(abs)
	w.lo, w.hi = bucketSpan(abs, w.width)
}

func (w *windowRing) slot(abs int64) int {
	n := int64(len(w.met))
	return int(((abs % n) + n) % n)
}

// advance moves the head to the bucket containing now, retiring every
// bucket that falls out of a window and zeroing the slots the head reuses.
func (w *windowRing) advance(now sim.Time) {
	if now < w.hi {
		return // at or behind the started head's bucket
	}
	abs := int64(now / w.width)
	if w.head < 0 {
		w.setHead(abs)
		return
	}
	if abs <= w.head {
		return
	}
	if abs-w.head >= int64(len(w.met)) {
		clear(w.met)
		clear(w.missed)
		w.winMet, w.winMissed = [numWindows]uint64{}, [numWindows]uint64{}
		w.setHead(abs)
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
	w.setHead(abs)
}

// observe counts one token outcome in the bucket containing at. Times ahead
// of the head advance it; times behind the retained span clamp to the
// oldest bucket.
func (w *windowRing) observe(at sim.Time, met bool) {
	if at >= w.lo && at < w.hi {
		// The head bucket: every window covers it.
		if met {
			w.met[w.hslot]++
			for i := range w.winMet {
				w.winMet[i]++
			}
		} else {
			w.missed[w.hslot]++
			for i := range w.winMissed {
				w.winMissed[i]++
			}
		}
		return
	}
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

// sums returns the (met, missed) totals over window i, ending at the head.
func (w *windowRing) sums(i int) (met, missed uint64) {
	return w.winMet[i], w.winMissed[i]
}

// epochSketch keeps bounded TTFT/TBT quantiles over a sliding epoch pair:
// samples land in the current reservoir, and quantiles merge the current
// and previous reservoirs, so the estimate always covers between one and
// two epochs of history with flat memory.
type epochSketch struct {
	epoch   time.Duration
	cur     *metrics.Reservoir
	prev    *metrics.Reservoir
	curIdx  int64
	curEnd  sim.Time // end of the current epoch; minTime before the first add or while curIdx < 0
	started bool
}

func newEpochSketch(epoch time.Duration, maxSamples int) *epochSketch {
	return &epochSketch{
		epoch:  epoch,
		cur:    metrics.NewReservoir(maxSamples),
		prev:   metrics.NewReservoir(maxSamples),
		curEnd: minTime,
	}
}

func (e *epochSketch) rotateTo(now sim.Time) {
	if now < e.curEnd {
		return
	}
	idx := int64(now / e.epoch)
	if !e.started {
		e.setEpoch(idx)
		e.started = true
		return
	}
	if idx <= e.curIdx {
		return
	}
	// The retiring previous reservoir is recycled as the new current one.
	retired := e.prev
	if idx == e.curIdx+1 {
		e.prev = e.cur
	} else {
		e.cur.Reset() // gap longer than an epoch: nothing carries over
		e.prev = e.cur
	}
	retired.Reset()
	e.cur = retired
	e.setEpoch(idx)
}

// setEpoch makes idx the current epoch and caches its end.
func (e *epochSketch) setEpoch(idx int64) {
	e.curIdx = idx
	_, e.curEnd = bucketSpan(idx, e.epoch)
}

func (e *epochSketch) add(now sim.Time, d time.Duration) {
	e.rotateTo(now)
	e.cur.AddDuration(d)
}

// merged returns a CDF over both epochs' retained samples.
func (e *epochSketch) merged() *metrics.CDF {
	var c metrics.CDF
	for _, v := range e.prev.Samples() {
		c.Add(v)
	}
	for _, v := range e.cur.Samples() {
		c.Add(v)
	}
	return &c
}
