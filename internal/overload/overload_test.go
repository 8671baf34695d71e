package overload

import (
	"sync"
	"testing"
	"time"

	"aegaeon/internal/sim"
)

func sec(s int) time.Duration { return time.Duration(s) * time.Second }

// TestEscalateRecoverArc is the golden transition test: a sustained page
// climbs the full ladder one hysteresis hold at a time, a warn plateau holds
// the level without escalating further, and a sustained clear signal walks
// back down to normal one recoverHold per rung.
func TestEscalateRecoverArc(t *testing.T) {
	c := NewController()
	page := Signals{Page: true, Warn: true, FastBurn: 20}
	warn := Signals{Warn: true, FastBurn: 5}
	clear := Signals{FastBurn: 0.1}

	script := []struct {
		at   time.Duration
		sig  Signals
		want Level
	}{
		{sec(0), clear, LevelNormal},
		{sec(1), page, LevelShedLow}, // first page escalates immediately
		{sec(2), page, LevelShedLow}, // escalateHold not yet elapsed
		{sec(6), page, LevelShrink},
		{sec(8), page, LevelShrink},
		{sec(11), page, LevelFreeze},
		{sec(16), page, LevelAdmitNone},
		{sec(21), page, LevelAdmitNone}, // ladder is capped
		{sec(22), warn, LevelAdmitNone}, // warn holds, never escalates
		{sec(30), warn, LevelAdmitNone},
		{sec(31), clear, LevelAdmitNone}, // clear streak starts
		{sec(40), clear, LevelAdmitNone}, // 9s clear < recoverHold
		{sec(46), clear, LevelFreeze},    // 15s clear: step down
		{sec(50), clear, LevelFreeze},
		{sec(61), clear, LevelShrink},
		{sec(76), clear, LevelShedLow},
		{sec(91), clear, LevelNormal},
		{sec(120), clear, LevelNormal},
	}
	for _, step := range script {
		if got := c.Step(step.at, step.sig); got != step.want {
			t.Fatalf("t=%v: level = %v, want %v", step.at, got, step.want)
		}
	}

	snap := c.Snapshot()
	if snap.Level != "normal" {
		t.Fatalf("final level = %q, want normal", snap.Level)
	}
	wantArc := []struct{ from, to Level }{
		{LevelNormal, LevelShedLow},
		{LevelShedLow, LevelShrink},
		{LevelShrink, LevelFreeze},
		{LevelFreeze, LevelAdmitNone},
		{LevelAdmitNone, LevelFreeze},
		{LevelFreeze, LevelShrink},
		{LevelShrink, LevelShedLow},
		{LevelShedLow, LevelNormal},
	}
	if len(snap.Transitions) != len(wantArc) {
		t.Fatalf("got %d transitions, want %d: %+v", len(snap.Transitions), len(wantArc), snap.Transitions)
	}
	for i, tr := range snap.Transitions {
		if tr.From != wantArc[i].from || tr.To != wantArc[i].to {
			t.Errorf("transition %d: %v→%v, want %v→%v", i, tr.From, tr.To, wantArc[i].from, wantArc[i].to)
		}
		if tr.FromName != tr.From.String() || tr.ToName != tr.To.String() {
			t.Errorf("transition %d: names %q→%q do not match levels", i, tr.FromName, tr.ToName)
		}
	}
}

// TestFlappingSignalHeldByHysteresis checks that a page/clear signal
// alternating faster than the holds cannot flap the level: escalation
// happens once, and recovery never starts because the clear streak keeps
// being reset.
func TestFlappingSignalHeldByHysteresis(t *testing.T) {
	c := NewController()
	for s := 0; s < 60; s++ {
		sig := Signals{Page: s%2 == 0}
		c.Step(sec(s), sig)
	}
	// Pages every other second: each page arrives with only 1s of clear
	// before it, so recovery never fires; escalation proceeds one rung per
	// escalateHold on the paging half of the signal.
	if got := c.Level(); got != LevelAdmitNone {
		t.Fatalf("level after sustained flapping = %v, want %v", got, LevelAdmitNone)
	}
	snap := c.Snapshot()
	for _, tr := range snap.Transitions {
		if tr.To < tr.From {
			t.Fatalf("flapping signal caused a recovery transition %v→%v", tr.From, tr.To)
		}
	}
}

// TestPolicyGetters pins the level → policy mapping, including nil safety.
func TestPolicyGetters(t *testing.T) {
	var nilC *Controller
	if nilC.Level() != LevelNormal || nilC.ShedLow() || nilC.FreezeCold() || nilC.AdmitNone() {
		t.Fatal("nil controller must behave as LevelNormal")
	}
	if got := nilC.OutputCap(100); got != 100 {
		t.Fatalf("nil OutputCap(100) = %d", got)
	}
	if nilC.Step(sec(1), Signals{Page: true}) != LevelNormal {
		t.Fatal("nil Step must return LevelNormal")
	}

	c := NewController()
	cases := []struct {
		level   Level
		shedLow bool
		freeze  bool
		none    bool
		out100  int
	}{
		{LevelNormal, false, false, false, 100},
		{LevelShedLow, true, false, false, 100},
		{LevelShrink, true, false, false, 75},
		{LevelFreeze, true, true, false, 75},
		{LevelAdmitNone, true, true, true, 75},
	}
	for _, tc := range cases {
		c.level = tc.level
		if c.ShedLow() != tc.shedLow || c.FreezeCold() != tc.freeze || c.AdmitNone() != tc.none {
			t.Errorf("%v: policy getters = (%v,%v,%v), want (%v,%v,%v)", tc.level,
				c.ShedLow(), c.FreezeCold(), c.AdmitNone(), tc.shedLow, tc.freeze, tc.none)
		}
		if got := c.OutputCap(100); got != tc.out100 {
			t.Errorf("%v: OutputCap(100) = %d, want %d", tc.level, got, tc.out100)
		}
	}
	if got := c.OutputCap(1); got != 1 {
		t.Errorf("OutputCap(1) = %d, want 1 (never below one token)", got)
	}
}

// TestControllerConcurrency exercises Step and the getters from several
// goroutines the way the live path does, through a sim.Driver that runs
// each call on its event loop, under the race detector.
func TestControllerConcurrency(t *testing.T) {
	c := NewController()
	drv := sim.NewDriver(sim.NewEngine(1), 1)
	drv.Start()
	defer drv.Stop()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = drv.Call(func() {
					if w%2 == 0 {
						c.Step(sec(i), Signals{Page: i%3 == 0})
					} else {
						_ = c.Level()
						_ = c.OutputCap(64)
						_ = c.Snapshot()
					}
				})
			}
		}()
	}
	wg.Wait()
}
