package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	var at2 Time
	e.After(time.Second, func() {
		e.After(time.Second, func() { at2 = e.Now() })
	})
	e.Run()
	if at2 != 2*time.Second {
		t.Fatalf("nested After fired at %v, want 2s", at2)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired || e.Processed() != 0 {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	e.At(1*time.Second, func() { fired = append(fired, 1) })
	e.At(3*time.Second, func() { fired = append(fired, 3) })
	e.RunUntil(2 * time.Second)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("RunUntil(2s) fired %v", fired)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock after RunUntil = %v, want 2s", e.Now())
	}
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event did not fire: %v", fired)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.At(time.Second, func() { n++ })
	e.At(2*time.Second, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEnginePanicsOnPast(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var samples []int64
		var tick func()
		tick = func() {
			samples = append(samples, e.rng.Int63n(1000))
			if len(samples) < 50 {
				e.After(time.Duration(e.rng.Int63n(int64(time.Second))), tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return samples
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of delays, events fire in sorted order and the count
// of fired events equals the count scheduled.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint32) bool {
		e := NewEngine(7)
		var fired []Time
		for _, d := range delays {
			e.After(time.Duration(d)*time.Microsecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineProcessedPending(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {})
	ev := e.After(2*time.Second, func() {})
	ev.Cancel()
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Processed() != 1 {
		t.Fatalf("Processed = %d, want 1 (cancelled event must not count)", e.Processed())
	}
}

// A handle outlives its event: once the event fires and a new event reuses
// its slot, cancelling through the old handle must not touch the newcomer.
func TestEventStaleHandle(t *testing.T) {
	e := NewEngine(1)
	first := e.After(time.Second, func() {})
	if !e.Step() {
		t.Fatal("first event did not fire")
	}
	fired := false
	second := e.After(time.Second, func() { fired = true })
	if second.slot != first.slot {
		t.Fatalf("second event got slot %d, want the freed slot %d", second.slot, first.slot)
	}
	first.Cancel()
	e.Run()
	if !fired {
		t.Fatal("stale Cancel stopped the slot's new occupant")
	}

	// A cancelled event's slot is reused too, and its stale handle cannot
	// cancel the newcomer.
	third := e.After(time.Second, func() { t.Error("cancelled event fired") })
	third.Cancel()
	e.Run()
	fourth := e.After(time.Second, func() {})
	if fourth.slot != third.slot {
		t.Fatalf("fourth event got slot %d, want %d", fourth.slot, third.slot)
	}
	third.Cancel()
	if e.Run(); e.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", e.Processed())
	}
}

func TestEventZeroHandle(t *testing.T) {
	var ev Event
	ev.Cancel()
	if ev.At() != 0 {
		t.Fatalf("zero Event At = %v", ev.At())
	}
}

// Property: with ties and cancellations mixed in, events fire in (time,
// scheduling order), skipping exactly the cancelled ones.
func TestEngineCancelOrderProperty(t *testing.T) {
	prop := func(delays []uint8, cancelMask []bool) bool {
		e := NewEngine(3)
		var fired, want []int
		evs := make([]Event, len(delays))
		for i, d := range delays {
			i := i
			evs[i] = e.After(time.Duration(d%16)*time.Millisecond, func() { fired = append(fired, i) })
		}
		cancelled := make([]bool, len(delays))
		for i := range delays {
			if i < len(cancelMask) && cancelMask[i] {
				evs[i].Cancel()
				cancelled[i] = true
			}
		}
		for at := 0; at < 16; at++ {
			for i, d := range delays {
				if int(d%16) == at && !cancelled[i] {
					want = append(want, i)
				}
			}
		}
		e.Run()
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Steady-state scheduling and firing allocates nothing: slots, heap and
// free list are all reused.
func TestScheduleFireAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(time.Microsecond, fn)
	}
	e.Run()
	if n := testing.AllocsPerRun(1000, func() {
		e.After(time.Microsecond, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("After+Step allocates %.1f times per event, want 0", n)
	}
}
