package slomon

import (
	"time"

	"aegaeon/internal/metrics"
	"aegaeon/internal/sim"
)

// Burn-rate window indices, in Config order (fast, mid, slow).
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
type windowRing struct {
	width  time.Duration
	met    []uint64
	missed []uint64
	head   int64 // absolute index of the newest bucket; -1 before first use

	// span[i] is window i's length in buckets; winMet[i]/winMissed[i] total
	// the buckets (head-span[i], head].
	span      [numWindows]int64
	winMet    [numWindows]uint64
	winMissed [numWindows]uint64
}

// newWindowRing builds a ring retaining the longest of the windows.
func newWindowRing(width time.Duration, windows [numWindows]time.Duration) *windowRing {
	w := &windowRing{width: width, head: -1}
	n := int64(1)
	for i, d := range windows {
		w.span[i] = max(int64(d/width), 1)
		n = max(n, w.span[i])
	}
	w.met = make([]uint64, n)
	w.missed = make([]uint64, n)
	return w
}

func (w *windowRing) slot(abs int64) int {
	n := int64(len(w.met))
	return int(((abs % n) + n) % n)
}

// advance moves the head to the bucket containing now, retiring every
// bucket that falls out of a window and zeroing the slots the head reuses.
func (w *windowRing) advance(now sim.Time) {
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

// observe counts one token outcome in the bucket containing at. Times ahead
// of the head advance it; times behind the retained span clamp to the
// oldest bucket.
func (w *windowRing) observe(at sim.Time, met bool) {
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
// two epochs of history with flat memory. The reservoirs are unlocked: the
// monitor's mutex guards them.
type epochSketch struct {
	epoch   time.Duration
	cur     *metrics.Reservoir
	prev    *metrics.Reservoir
	curIdx  int64
	started bool
}

func newEpochSketch(epoch time.Duration, maxSamples int) *epochSketch {
	return &epochSketch{
		epoch: epoch,
		cur:   metrics.NewReservoir(maxSamples),
		prev:  metrics.NewReservoir(maxSamples),
	}
}

func (e *epochSketch) rotateTo(now sim.Time) {
	idx := int64(now / e.epoch)
	if !e.started {
		e.curIdx = idx
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
	e.curIdx = idx
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
