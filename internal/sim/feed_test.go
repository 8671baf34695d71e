package sim

import (
	"math/rand"
	"testing"
	"time"
)

// firing is what one fired callback observed.
type firing struct {
	label int
	now   Time
	next  Time // NextEventTime inside the callback; -1 when the queue is empty
}

// script drives an engine through a schedule read from a byte stream:
// At calls, Cancel calls and batches of arrivals, issued both before Run and
// from inside callbacks. With feed set, each batch goes through Feed;
// otherwise it is the equivalent At loop in index order. Labels are handed
// out in scheduling order, so two scripts reading the same bytes label the
// same events alike as long as they fire alike.
type script struct {
	eng    *Engine
	feed   bool
	data   []byte
	budget int // ops left; bounds the schedule
	label  int
	ats    []Event
	fired  []firing
}

func (s *script) byte() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

// delay is a short offset from now: ties are common, order is random.
func (s *script) delay() Time { return Time(s.byte()%6) * time.Millisecond }

// fire is the callback for label: it records the firing, then runs up to
// two more ops.
func (s *script) fire(label int) {
	next, ok := s.eng.NextEventTime()
	if !ok {
		next = -1
	}
	s.fired = append(s.fired, firing{label: label, now: s.eng.Now(), next: next})
	for n := s.byte() % 3; n > 0; n-- {
		s.op()
	}
}

func (s *script) op() {
	if s.budget == 0 {
		return
	}
	s.budget--
	switch s.byte() % 3 {
	case 0:
		l := s.label
		s.label++
		s.ats = append(s.ats, s.eng.At(s.eng.Now()+s.delay(), func() { s.fire(l) }))
	case 1:
		times := make([]Time, s.byte()%9)
		for i := range times {
			times[i] = s.eng.Now() + s.delay()
		}
		base := s.label
		s.label += len(times)
		if s.feed {
			s.eng.Feed(times, func(i int) { s.fire(base + i) })
			return
		}
		for i, t := range times {
			l := base + i
			s.eng.At(t, func() { s.fire(l) })
		}
	case 2:
		if len(s.ats) > 0 {
			s.ats[s.byte()%len(s.ats)].Cancel()
		}
	}
}

// run plays the script: some ops, a bounded run, more ops from outside any
// callback, then the rest of the run.
func (s *script) run() {
	for n := 1 + s.byte()%4; n > 0; n-- {
		s.op()
	}
	s.eng.RunUntil(s.delay())
	for n := s.byte() % 3; n > 0; n-- {
		s.op()
	}
	s.eng.Run()
}

// checkFeedMatchesAt plays data with Feed and with At loops and requires
// identical firing sequences, clocks and queue heads.
func checkFeedMatchesAt(t *testing.T, data []byte) {
	t.Helper()
	fed := &script{eng: NewEngine(1), feed: true, data: data, budget: 200}
	ref := &script{eng: NewEngine(1), data: data, budget: 200}
	fed.run()
	ref.run()
	for i := 0; i < len(fed.fired) && i < len(ref.fired); i++ {
		if fed.fired[i] != ref.fired[i] {
			t.Fatalf("firing %d: Feed %+v, At %+v", i, fed.fired[i], ref.fired[i])
		}
	}
	if len(fed.fired) != len(ref.fired) {
		t.Fatalf("Feed fired %d events, At %d", len(fed.fired), len(ref.fired))
	}
	if fed.eng.Processed() != ref.eng.Processed() || fed.eng.Now() != ref.eng.Now() {
		t.Fatalf("Feed ends at %v after %d events, At at %v after %d",
			fed.eng.Now(), fed.eng.Processed(), ref.eng.Now(), ref.eng.Processed())
	}
	if fed.eng.seq != ref.eng.seq {
		t.Fatalf("Feed used %d sequence numbers, At %d", fed.eng.seq, ref.eng.seq)
	}
}

func TestFeedMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		data := make([]byte, 64+rng.Intn(448))
		rng.Read(data)
		checkFeedMatchesAt(t, data)
	}
}

func FuzzFeedOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 8, 5, 4, 3, 2, 1, 0, 5, 0, 2, 0, 1, 1, 0, 3})
	f.Add([]byte{2, 0, 5, 1, 1, 6, 0, 0, 0, 0, 0, 0, 2, 0, 2, 1, 2, 1, 4, 4})
	f.Fuzz(checkFeedMatchesAt)
}

// An unfinished feed holds exactly one queue entry.
func TestFeedPendingIsOne(t *testing.T) {
	e := NewEngine(1)
	times := make([]Time, 100)
	for i := range times {
		times[i] = Time(i) * time.Millisecond
	}
	n := 0
	e.Feed(times, func(int) { n++ })
	if e.Pending() != 1 {
		t.Fatalf("Pending after Feed = %d, want 1", e.Pending())
	}
	e.RunUntil(50 * time.Millisecond)
	if e.Pending() != 1 || n != 51 {
		t.Fatalf("midway: Pending = %d, fired %d; want 1, 51", e.Pending(), n)
	}
	e.Run()
	if e.Pending() != 0 || n != 100 || e.Processed() != 100 {
		t.Fatalf("after Run: Pending = %d, fired %d, Processed %d", e.Pending(), n, e.Processed())
	}
}

// A time before now panics up front: nothing is queued and no sequence
// number is taken.
func TestFeedPanicsOnPast(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {
		pending, seq := e.Pending(), e.seq
		func() {
			defer func() {
				if recover() == nil {
					t.Error("feeding an arrival in the past did not panic")
				}
			}()
			e.Feed([]Time{2 * time.Second, 0}, func(int) { t.Error("feed from a panicked call fired") })
		}()
		if e.Pending() != pending || e.seq != seq {
			t.Errorf("panicked Feed left Pending %d seq %d, want %d %d", e.Pending(), e.seq, pending, seq)
		}
	})
	e.Run()
}

func BenchmarkFeed(b *testing.B) {
	const arrivals = 100_000
	e := NewEngine(1)
	times := make([]Time, arrivals)
	fn := func(int) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := e.Now()
		for j := range times {
			times[j] = now + Time(j)*time.Microsecond
		}
		e.Feed(times, fn)
		e.Run()
	}
}
