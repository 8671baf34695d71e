// Package sim provides a deterministic discrete-event simulation kernel.
//
// All Aegaeon components are written against a virtual clock owned by an
// Engine. Events are executed in strictly non-decreasing time order; ties are
// broken by scheduling order, which makes every simulation run bit-for-bit
// reproducible for a fixed seed.
//
// The event path allocates nothing in steady state. Callbacks live in a slot
// table recycled through a free list, and the queue is a value-typed binary
// heap of (time, sequence, slot) entries. Scheduling hands back an Event: a
// small value handle naming the slot and the generation it was issued for.
// A slot's generation advances each time the slot is reused, so a handle
// kept past its event's firing goes stale: Cancel on it is a no-op and can
// never reach the slot's next occupant.
//
// A trace's arrivals enter through Feed rather than one At per arrival.
// A feed reserves the sequence numbers those At calls would have taken but
// keeps only its next arrival queued, so the heap holds the events that can
// fire soon instead of every arrival the clock has not reached, and the
// firing order is the one the At calls would give.
//
// Work that advances between events without events of its own (a decode
// run's step boundaries) registers a Settler. Before an event fires at t,
// and before RunUntil moves the clock to its horizon, the engine settles
// every point the settler has due at or before t, in time order, with the
// clock at each point's time. So every event, and every read made between
// runs, sees the state those points leave. Settling may not schedule.
package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Time is a point in virtual time, measured from the start of the simulation.
type Time = time.Duration

// Event is a handle to a scheduled callback; it may be used to cancel the
// callback before it fires. Handles are values: copy and compare them
// freely. The zero Event refers to nothing, and Cancel on it is a no-op.
type Event struct {
	eng  *Engine
	at   Time
	slot int32
	gen  uint32
}

// At returns the virtual time at which the event is (or was) scheduled.
func (ev Event) At() Time { return ev.at }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event, a stale handle or the zero Event is a no-op.
func (ev Event) Cancel() {
	if s := ev.live(); s != nil && s.fn != nil {
		s.fn = nil
	}
}

// live returns the handle's slot while it still belongs to this event.
func (ev Event) live() *slot {
	if ev.eng == nil {
		return nil
	}
	s := &ev.eng.slots[ev.slot]
	if s.gen != ev.gen {
		return nil
	}
	return s
}

// slot holds one event's callback, or the feed whose next entry it carries.
// fn is non-nil exactly while an At event is pending, feed exactly while a
// feed has entries left; gen advances each time the slot is handed out.
type slot struct {
	fn   func()
	feed *feed
	gen  uint32
}

// feed is a batch of arrivals queued one entry at a time. Index i fires at
// times[i] under sequence number base+i; next is the firing position of the
// entry currently in the heap.
type feed struct {
	times []Time
	order []int // indices in firing order; nil when times is already sorted
	base  uint64
	next  int
	fn    func(i int)
}

// index returns the trace index at firing position k.
func (f *feed) index(k int) int {
	if f.order == nil {
		return k
	}
	return f.order[k]
}

// entry returns the heap entry for the feed's next firing position.
func (f *feed) entry(slot int32) entry {
	i := f.index(f.next)
	return entry{at: f.times[i], seq: f.base + uint64(i), slot: slot}
}

// entry is one heap element. (at, seq) is a strict total order, so the pop
// sequence is fully determined by the schedule.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulation executor with a virtual clock.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now      Time
	heap     []entry
	slots    []slot
	free     []int32 // indices of slots not holding a pending event
	seq      uint64
	rng      *rand.Rand
	running  bool
	fired    uint64
	settlers []Settler
}

// NewEngine returns an engine whose clock starts at zero and whose random
// source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.fired }

// Pending returns the number of events currently queued. A cancelled
// event counts until the clock reaches it; an unfinished feed counts as one.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	i := e.takeSlot()
	s := &e.slots[i]
	s.fn = fn
	e.push(entry{at: t, seq: e.reserve(1), slot: i})
	return Event{eng: e, at: t, slot: i, gen: s.gen}
}

// Feed schedules fn(i) at times[i] for every index of times. It fires
// exactly as len(times) At calls made now in index order would: it takes
// the same sequence numbers, so same-instant arrivals keep index order and
// events scheduled later still break ties after them. Only the earliest
// unfired entry is queued at a time; when it fires the next one is queued
// under its reserved number before fn runs. Feed keeps times until the last
// entry fires, so the caller must not modify it. A time before now panics
// before anything is scheduled. Feed entries cannot be cancelled.
func (e *Engine) Feed(times []Time, fn func(i int)) {
	if fn == nil {
		panic("sim: nil feed callback")
	}
	sorted := true
	for i, t := range times {
		if t < e.now {
			panic(fmt.Sprintf("sim: feeding arrival %d at %v before now %v", i, t, e.now))
		}
		if i > 0 && t < times[i-1] {
			sorted = false
		}
	}
	base := e.reserve(len(times))
	if len(times) == 0 {
		return
	}
	f := &feed{times: times, base: base, fn: fn}
	if !sorted {
		f.order = make([]int, len(times))
		for i := range f.order {
			f.order[i] = i
		}
		slices.SortStableFunc(f.order, func(a, b int) int { return cmp.Compare(times[a], times[b]) })
	}
	i := e.takeSlot()
	e.slots[i].feed = f
	e.push(f.entry(i))
}

// Settler is work that advances at points in virtual time that are not
// events: the engine settles each point before anything at or after its
// time happens. Settle follows the settler's Due call with no event in
// between; it must not schedule an event: the engine panics if it does.
type Settler interface {
	// Due returns the time of the earliest point not yet settled, or false
	// when none is pending.
	Due() (Time, bool)
	// Settle settles the point Due returned. The clock reads its time.
	Settle()
}

// AddSettler registers s with the engine. Several settlers share the
// clock: their points settle in time order, the earlier registered first
// on a tie.
func (e *Engine) AddSettler(s Settler) { e.settlers = append(e.settlers, s) }

// settleTo settles every point due at or before t, earliest first.
func (e *Engine) settleTo(t Time) {
	for len(e.settlers) > 0 {
		var next Settler
		at := t
		for _, s := range e.settlers {
			if p, ok := s.Due(); ok && p <= at && (next == nil || p < at) {
				next, at = s, p
			}
		}
		if next == nil {
			return
		}
		if at < e.now {
			panic(fmt.Sprintf("sim: settle point %v before now %v", at, e.now))
		}
		e.now = at
		seq := e.seq
		next.Settle()
		if e.seq != seq {
			panic(fmt.Sprintf("sim: settling the point at %v scheduled an event", at))
		}
	}
}

// reserve hands out n consecutive sequence numbers and returns the first.
func (e *Engine) reserve(n int) uint64 {
	seq := e.seq
	e.seq += uint64(n)
	return seq
}

// takeSlot returns a free slot, advancing its generation so handles issued
// for its previous occupants go stale.
func (e *Engine) takeSlot() int32 {
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	e.slots[i].gen++
	return i
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// NextEventTime returns the virtual time of the earliest scheduled event.
// A cancelled event may still be reported; it is discarded when reached.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	e.RunUntil(maxTime)
}

const maxTime = Time(1<<63 - 1)

// RunUntil executes events with timestamps <= horizon and advances the clock
// to horizon (or to the last event time if the queue empties first; the clock
// never moves past horizon). Moving the clock to horizon settles the points
// due by then.
func (e *Engine) RunUntil(horizon Time) {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 && e.heap[0].at <= horizon {
		e.fireNext()
	}
	if horizon != maxTime && horizon > e.now {
		e.settleTo(horizon)
		e.now = horizon
	}
}

// Step fires exactly one pending (non-cancelled) event and returns true, or
// returns false if the queue is empty.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		if e.fireNext() {
			return true
		}
	}
	return false
}

// fireNext pops the earliest entry, frees its slot and runs its callback
// unless it was cancelled; it reports whether a callback ran. The slot is
// free before the callback runs, so events the callback schedules may reuse
// it; the fired event's own handle is stale from then on. A feed's entry
// instead queues the feed's next entry in the same slot, freeing the slot
// only after the last one. Points due by the entry's time settle before its
// callback runs; a cancelled entry settles nothing.
func (e *Engine) fireNext() bool {
	top := e.pop()
	s := &e.slots[top.slot]
	if f := s.feed; f != nil {
		i := f.index(f.next)
		f.next++
		if f.next < len(f.times) {
			e.push(f.entry(top.slot))
		} else {
			s.feed = nil
			e.free = append(e.free, top.slot)
		}
		e.settleTo(top.at)
		e.now = top.at
		e.fired++
		f.fn(i)
		return true
	}
	fn := s.fn
	s.fn = nil
	e.free = append(e.free, top.slot)
	if fn == nil {
		return false // cancelled
	}
	e.settleTo(top.at)
	e.now = top.at
	e.fired++
	fn()
	return true
}

// push adds x to the heap, sifting the hole up from the end.
func (e *Engine) push(x entry) {
	h := append(e.heap, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	e.heap = h
}

// pop removes and returns the earliest entry; the heap must be non-empty.
func (e *Engine) pop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.heap = h
	return top
}
