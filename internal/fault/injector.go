package fault

import (
	"fmt"

	"aegaeon/internal/sim"
)

// Surface is what an Injector drives: the seam between a fault schedule and
// the component that can actually make the failure happen. The cluster proxy
// implements the full interface; narrower harnesses may return an error from
// the operations they cannot model.
type Surface interface {
	// Crash fail-stops the named instance (e.g. "decode1", "prefill0").
	Crash(target string) error
	// FailTransfers poisons KV transfers on target ("" = all) for d.
	FailTransfers(target string, d sim.Time) error
	// FailFetch makes remote fetches of model ("" = all) fail for d.
	FailFetch(model string, d sim.Time) error
	// SlowFetch multiplies remote fetch latency by factor for d.
	SlowFetch(factor float64, d sim.Time) error
	// PartitionStore makes the metadata store unreachable for d.
	PartitionStore(d sim.Time) error
	// SlowStore multiplies metadata store RTT by factor for d.
	SlowStore(factor float64, d sim.Time) error
}

// SpotSurface is the optional extension surfaces implement to accept the
// spot-market fault kinds. The injector type-asserts for it when a reclaim
// or throttle fault fires; surfaces without it reject those kinds.
type SpotSurface interface {
	// Reclaim delivers a spot preemption notice for the device: grace to
	// evacuate, then hard revocation.
	Reclaim(target string, grace sim.Time) error
	// Throttle slows the device's compute by factor for d.
	Throttle(target string, factor float64, d sim.Time) error
}

// Injector replays a fault schedule against a Surface on the sim clock.
type Injector struct {
	eng      *sim.Engine
	surface  Surface
	sched    []Fault
	injected int
	errs     []error
}

// NewInjector binds a schedule to a surface. Arm must be called (before or
// during the run) to schedule the injections.
func NewInjector(eng *sim.Engine, surface Surface, sched []Fault) *Injector {
	return &Injector{eng: eng, surface: surface, sched: sched}
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
	case KindTransfer:
		err = in.surface.FailTransfers(f.Target, f.Duration)
	case KindFetchFail:
		err = in.surface.FailFetch(f.Target, f.Duration)
	case KindFetchSlow:
		err = in.surface.SlowFetch(f.Factor, f.Duration)
	case KindPartition:
		err = in.surface.PartitionStore(f.Duration)
	case KindStoreSlow:
		err = in.surface.SlowStore(f.Factor, f.Duration)
	case KindReclaim:
		if ss, ok := in.surface.(SpotSurface); ok {
			err = ss.Reclaim(f.Target, f.Duration)
		} else {
			err = fmt.Errorf("surface does not support spot faults")
		}
	case KindThrottle:
		if ss, ok := in.surface.(SpotSurface); ok {
			err = ss.Throttle(f.Target, f.Factor, f.Duration)
		} else {
			err = fmt.Errorf("surface does not support spot faults")
		}
	default:
		err = fmt.Errorf("fault: unknown kind %q", f.Kind)
	}
	if err != nil {
		in.errs = append(in.errs, fmt.Errorf("fault: inject %s: %w", f, err))
		return
	}
	in.injected++
}

// Injected returns how many faults fired successfully so far.
func (in *Injector) Injected() int { return in.injected }

// Errors returns injection failures (e.g. crashing an already-dead target).
func (in *Injector) Errors() []error { return in.errs }
