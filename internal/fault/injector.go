package fault

import (
	"fmt"

	"aegaeon/internal/sim"
)

// Surface is what an Injector drives for the fault kinds that need an
// instance or the metadata store: the seam between a fault schedule and the
// component that can actually make the failure happen. The runtime windows
// (xfer, fetchfail, fetchslow) need neither; the injector opens them on its
// *Faults directly. A surface that cannot model a kind returns an error.
type Surface interface {
	// Crash fail-stops the named instance (e.g. "decode1", "prefill0").
	Crash(target string) error
	// Reclaim delivers a spot preemption notice for the device: grace to
	// evacuate, then hard revocation.
	Reclaim(target string, grace sim.Time) error
	// Throttle slows the device's compute by factor for d.
	Throttle(target string, factor float64, d sim.Time) error
	// PartitionStore makes the metadata store unreachable for d.
	PartitionStore(d sim.Time) error
	// SlowStore multiplies metadata store RTT by factor for d.
	SlowStore(factor float64, d sim.Time) error
}

// Injector replays a fault schedule against a Surface and a *Faults on the
// sim clock.
type Injector struct {
	eng      *sim.Engine
	surface  Surface
	faults   *Faults
	sched    []Fault
	injected int
	errs     []error
}

// NewInjector binds a schedule to a surface and the fault runtime the
// surface's components read; a nil faults makes every runtime-window kind
// an injection error. Arm must be called (before or during the run) to
// schedule the injections.
func NewInjector(eng *sim.Engine, surface Surface, faults *Faults, sched []Fault) *Injector {
	return &Injector{eng: eng, surface: surface, faults: faults, sched: sched}
}

// Arm schedules every fault at its virtual time. Faults whose time is
// already in the past fire immediately on the next event-loop turn.
func (in *Injector) Arm() {
	for _, f := range in.sched {
		f := f
		at := f.At
		if at < in.eng.Now() {
			at = in.eng.Now()
		}
		in.eng.At(at, func() { in.fire(f) })
	}
}

func (in *Injector) fire(f Fault) {
	var err error
	switch f.Kind {
	case KindCrash:
		err = in.surface.Crash(f.Target)
	case KindTransfer, KindFetchFail, KindFetchSlow:
		err = in.openWindow(f)
	case KindPartition:
		err = in.surface.PartitionStore(f.Duration)
	case KindStoreSlow:
		err = in.surface.SlowStore(f.Factor, f.Duration)
	case KindReclaim:
		err = in.surface.Reclaim(f.Target, f.Duration)
	case KindThrottle:
		err = in.surface.Throttle(f.Target, f.Factor, f.Duration)
	default:
		err = fmt.Errorf("fault: unknown kind %q", f.Kind)
	}
	if err != nil {
		in.errs = append(in.errs, fmt.Errorf("fault: inject %s: %w", f, err))
		return
	}
	in.injected++
}

// openWindow opens a runtime fault window on the injector's *Faults.
func (in *Injector) openWindow(f Fault) error {
	if in.faults == nil {
		return fmt.Errorf("no fault state configured")
	}
	switch f.Kind {
	case KindTransfer:
		in.faults.FailTransfers(f.Target, f.Duration)
	case KindFetchFail:
		in.faults.FailFetch(f.Target, f.Duration)
	case KindFetchSlow:
		in.faults.SlowFetch(f.Factor, f.Duration)
	}
	return nil
}

// Injected returns how many faults fired successfully so far.
func (in *Injector) Injected() int { return in.injected }

// Errors returns injection failures (e.g. crashing an already-dead target).
func (in *Injector) Errors() []error { return in.errs }
