package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDriverStopped is returned by Post and Call after the driver has been
// stopped: the event loop will never execute the injected function.
var ErrDriverStopped = errors.New("sim: driver stopped")

// Driver replays an Engine's virtual time against the wall clock, turning
// the single-threaded deterministic core into a live server. It owns the
// engine exclusively: all engine and simulation-component state must be
// touched only from functions injected via Post or Call, which the driver
// executes on its loop goroutine. This is the concurrency boundary of the
// live serving path — HTTP goroutines inject closures, the loop serializes
// them against the event heap, and nothing inside the simulation ever needs
// a lock.
//
// Pacing maps virtual time v to wall time start + (v-start_v)/speedup: a
// speedup of 1 replays in real time, larger values run proportionally
// faster. Accelerate abandons pacing and burns through remaining events at
// full speed, which is how graceful drain finishes in-flight decodes
// quickly regardless of the configured speedup.
type Driver struct {
	eng     *Engine
	speedup float64

	mu      sync.Mutex
	pending []func()
	stopped bool

	accel atomic.Bool

	wake chan struct{}
	done chan struct{}

	anchor atomic.Pointer[anchor] // set by Start

	stopOnce sync.Once
}

// anchor pins one virtual instant to the wall-clock instant it replays at.
type anchor struct {
	wall time.Time
	virt Time
}

// NewDriver wraps eng for real-time replay at the given speedup (virtual
// seconds per wall second; values <= 0 default to 1). The driver does not
// run until Start is called.
func NewDriver(eng *Engine, speedup float64) *Driver {
	if speedup <= 0 {
		speedup = 1
	}
	return &Driver{
		eng:     eng,
		speedup: speedup,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

// Start anchors virtual time to the current wall clock and launches the
// event loop goroutine. Start must be called at most once.
func (d *Driver) Start() {
	d.anchor.Store(&anchor{wall: time.Now(), virt: d.eng.Now()})
	go d.loop()
}

// Post schedules fn to run on the loop goroutine at the current virtual
// time. It is safe for concurrent use; ordering between concurrent posters
// is the order in which they win the queue lock. fn typically schedules
// further events via the engine it closes over.
func (d *Driver) Post(fn func()) error {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return ErrDriverStopped
	}
	d.pending = append(d.pending, fn)
	d.mu.Unlock()
	d.kick()
	return nil
}

// Call runs fn on the loop goroutine and waits for it to return — the safe
// way for an HTTP goroutine to read simulation state (e.g. a metrics
// snapshot).
func (d *Driver) Call(fn func()) error {
	ran := make(chan struct{})
	if err := d.Post(func() {
		fn()
		close(ran)
	}); err != nil {
		return err
	}
	<-ran
	return nil
}

// Accelerate switches the driver to un-paced execution: remaining and
// future events run as fast as the host allows. Used during graceful drain.
func (d *Driver) Accelerate() {
	d.accel.Store(true)
	d.kick()
}

// Stop shuts the loop down: functions already posted still run, then the
// remaining event queue is executed to completion un-paced, and the loop
// exits. Stop blocks until the loop goroutine has finished and is
// idempotent. Post and Call fail with ErrDriverStopped afterwards.
func (d *Driver) Stop() {
	d.stopOnce.Do(func() {
		d.mu.Lock()
		d.stopped = true
		d.mu.Unlock()
		d.kick()
	})
	<-d.done
}

// kick wakes the loop without blocking.
func (d *Driver) kick() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

func (d *Driver) takePending() []func() {
	d.mu.Lock()
	fns := d.pending
	d.pending = nil
	d.mu.Unlock()
	return fns
}

// VirtualNow maps the current wall clock onto virtual time by the pacing
// the driver replays at: the instant the event loop is paced toward. It is
// safe to call from any goroutine, and returns 0 before Start. The engine's
// own clock is never behind it for long while paced, and may run ahead of
// it once the driver is accelerated.
func (d *Driver) VirtualNow() Time {
	a := d.anchor.Load()
	if a == nil {
		return 0
	}
	return a.virt + Time(float64(time.Since(a.wall))*d.speedup)
}

// wallFor maps a virtual timestamp back onto the wall clock. Loop only.
func (d *Driver) wallFor(v Time) time.Time {
	a := d.anchor.Load()
	return a.wall.Add(time.Duration(float64(v-a.virt) / d.speedup))
}

// advance fires every event due by the present moment. Under pacing the
// horizon is the wall-mapped virtual now (the clock also advances through
// event-free stretches, so injected arrivals land at the right virtual
// instant); accelerated, the whole queue drains.
func (d *Driver) advance() {
	if d.accel.Load() {
		d.eng.Run()
		return
	}
	if v := d.VirtualNow(); v > d.eng.Now() {
		d.eng.RunUntil(v)
	}
}

func (d *Driver) loop() {
	defer close(d.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		for _, fn := range d.takePending() {
			d.advance()
			fn()
		}
		d.advance()

		d.mu.Lock()
		stopped := d.stopped
		more := len(d.pending) > 0
		d.mu.Unlock()
		if more {
			continue
		}
		if stopped {
			// Final drain: posted functions may schedule events and events
			// may (indirectly) trigger posts, so alternate until both are
			// empty.
			for {
				d.eng.Run()
				fns := d.takePending()
				if len(fns) == 0 {
					return
				}
				for _, fn := range fns {
					fn()
				}
			}
		}

		// Sleep until the next event is due on the wall clock, or until a
		// post/stop/accelerate kick arrives.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		if next, ok := d.eng.NextEventTime(); ok && !d.accel.Load() {
			wait := time.Until(d.wallFor(next))
			if wait <= 0 {
				continue
			}
			timer.Reset(wait)
			select {
			case <-d.wake:
			case <-timer.C:
			}
			continue
		}
		<-d.wake
	}
}
