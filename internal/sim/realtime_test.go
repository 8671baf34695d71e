package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDriverConcurrentInjection hammers the injection API from many
// goroutines while the loop runs, verifying (under -race) that external
// concurrency never touches engine state off the loop goroutine and that
// every injected function executes exactly once.
func TestDriverConcurrentInjection(t *testing.T) {
	eng := NewEngine(1)
	d := NewDriver(eng, 1e6)
	d.Start()

	const goroutines = 16
	const perG = 50
	var fired atomic.Int64
	var scheduled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := d.Post(func() {
					// Runs on the loop goroutine: schedule follow-on events
					// against the engine, which only the loop may touch.
					eng.After(time.Duration(g+i)*time.Microsecond, func() {
						fired.Add(1)
					})
					scheduled.Add(1)
				})
				if err != nil {
					t.Errorf("Post: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// A synchronous Call fences all prior posts; accelerating then draining
	// through Stop fences the scheduled events.
	if err := d.Call(func() {}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	d.Accelerate()
	d.Stop()
	if got := scheduled.Load(); got != goroutines*perG {
		t.Fatalf("scheduled %d injected functions, want %d", got, goroutines*perG)
	}
	if got := fired.Load(); got != goroutines*perG {
		t.Fatalf("fired %d events, want %d", got, goroutines*perG)
	}
}

// TestDriverPacing verifies virtual time replays against the wall clock at
// the configured speedup.
func TestDriverPacing(t *testing.T) {
	eng := NewEngine(1)
	done := make(chan time.Time, 1)
	// 500ms of virtual time at 100x should take ~5ms of wall time.
	eng.At(500*time.Millisecond, func() { done <- time.Now() })
	d := NewDriver(eng, 100)
	start := time.Now()
	d.Start()
	select {
	case at := <-done:
		elapsed := at.Sub(start)
		if elapsed < 4*time.Millisecond {
			t.Fatalf("event fired after %v wall time, want >= ~5ms (pacing ignored?)", elapsed)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("event fired after %v wall time, want ~5ms", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("paced event never fired")
	}
	d.Stop()
}

// TestDriverInjectionAdvancesClock checks that an injected arrival lands at
// the wall-mapped virtual instant, not at the last event's timestamp.
func TestDriverInjectionAdvancesClock(t *testing.T) {
	eng := NewEngine(1)
	d := NewDriver(eng, 1000)
	d.Start()
	time.Sleep(20 * time.Millisecond) // ~20s of virtual time at 1000x
	var at Time
	if err := d.Call(func() { at = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if at < 10*time.Second {
		t.Fatalf("virtual clock %v after 20ms wall at 1000x, want >= 10s", at)
	}
	d.Stop()
}

// TestDriverStopRejectsPost verifies the post/stop race is closed: once
// Stop returns, Post fails rather than silently dropping work.
func TestDriverStopRejectsPost(t *testing.T) {
	eng := NewEngine(1)
	d := NewDriver(eng, 1)
	d.Start()
	d.Stop()
	if err := d.Post(func() {}); err != ErrDriverStopped {
		t.Fatalf("Post after Stop = %v, want ErrDriverStopped", err)
	}
}

// TestCallAfterStop races Calls against Stop. Each runs exactly once and
// returns nil, and none overlaps the loop's own work or another Call: the
// ones that miss the loop run on their caller's goroutine, one at a time.
// Post still fails after the stop, so a ticker that posts until it fails
// (the gateway's brownout loop) exits.
func TestCallAfterStop(t *testing.T) {
	eng := NewEngine(1)
	d := NewDriver(eng, 1e6)
	var inside atomic.Int32
	var shared int // written by every Call and event; -race flags an overlap
	enter := func() {
		if inside.Add(1) != 1 {
			t.Error("a Call overlapped the loop or another Call")
		}
		shared++
		inside.Add(-1)
	}
	for i := 0; i < 200; i++ {
		eng.After(time.Duration(i)*time.Microsecond, enter)
	}
	d.Start()

	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		for d.Post(enter) == nil {
			time.Sleep(50 * time.Microsecond)
		}
	}()

	const callers, perCaller = 8, 50
	var runs [callers * perCaller]atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				slot := &runs[c*perCaller+i]
				if err := d.Call(func() { enter(); slot.Add(1) }); err != nil {
					t.Errorf("Call = %v, want nil", err)
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	d.Stop()
	wg.Wait()
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("call %d ran %d times, want 1", i, n)
		}
	}
	if err := d.Post(func() {}); err != ErrDriverStopped {
		t.Fatalf("Post after Stop = %v, want ErrDriverStopped", err)
	}
	select {
	case <-tickerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("a ticker posting to a stopped driver did not exit")
	}
	if shared < 200+callers*perCaller {
		t.Fatalf("%d entries, want at least %d", shared, 200+callers*perCaller)
	}
}

// TestDriverStopDrainsPending verifies functions posted before Stop always
// run, along with every event they schedule.
func TestDriverStopDrainsPending(t *testing.T) {
	eng := NewEngine(1)
	d := NewDriver(eng, 1e-9) // effectively frozen pacing: only drain runs events
	d.Start()
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		if err := d.Post(func() {
			eng.After(time.Hour, func() { ran.Add(1) })
		}); err != nil {
			t.Fatalf("Post: %v", err)
		}
	}
	d.Stop()
	if got := ran.Load(); got != 100 {
		t.Fatalf("%d far-future events ran after Stop, want 100", got)
	}
}
