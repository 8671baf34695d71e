// Package overload implements SLO-coupled brownout control: a small state
// machine that consumes the live monitor's burn-rate alert state and steps
// the fleet through declared degradation levels — shed low-priority work,
// shrink decode lengths, freeze cold-model loads, and finally admit nothing
// — instead of letting overload collapse every request's SLO at once. The
// ladder is deliberately ordered from cheapest to most drastic, and both
// directions carry hysteresis holds so a noisy burn signal cannot flap the
// fleet between levels.
//
// The controller is passive: it never acts on the system itself. The one
// admission path that consults it, the core's arrival check, reads the
// policy getters and enforces whatever the current level demands; the live
// gateway answers with that check's verdict. All getters are nil-safe — a
// nil *Controller behaves as LevelNormal, keeping the default serving path
// free of overload checks.
package overload

import (
	"time"

	"aegaeon/internal/sim"
)

// Level is one rung of the degradation ladder. Higher levels include every
// restriction of the levels below them.
type Level int

const (
	// LevelNormal: no degradation; all admission checks pass through.
	LevelNormal Level = iota
	// LevelShedLow: reject new low-priority requests.
	LevelShedLow
	// LevelShrink: additionally cap requested decode lengths.
	LevelShrink
	// LevelFreeze: additionally refuse requests to cold models (ones with
	// no admitted work), since serving them would force a model switch.
	LevelFreeze
	// LevelAdmitNone: admit nothing; only in-flight work drains.
	LevelAdmitNone
)

const maxLevel = LevelAdmitNone

func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelShedLow:
		return "shed-low"
	case LevelShrink:
		return "shrink"
	case LevelFreeze:
		return "freeze"
	case LevelAdmitNone:
		return "admit-none"
	}
	return "unknown"
}

// Hysteresis holds and the shrink factor.
const (
	// escalateHold is the minimum dwell time at a level before the next
	// page signal may push it one rung higher. The first escalation out of
	// LevelNormal is immediate: when the fleet starts paging there is no
	// reason to wait before shedding the cheapest tier.
	escalateHold = 5 * time.Second
	// recoverHold is how long the burn signal must stay clear (neither page
	// nor warn) before the controller steps down one rung, and how long it
	// then waits again before the next step. Recovery is deliberately
	// slower than escalation: re-admitting load into a fleet that just
	// stopped burning is how incidents relapse.
	recoverHold = 15 * time.Second
	// shrinkScale is the fraction of the requested decode length granted at
	// LevelShrink and above: decode is rarely the bottleneck under
	// switch-dominated overload, so a gentle trim preserves goodput while
	// still signalling degradation.
	shrinkScale = 0.75
)

// Signals is one observation of fleet pressure, fed to Step.
type Signals struct {
	// Page and Warn mirror the slomon fleet alert state: Page drives
	// escalation, Warn holds the current level (neither lets it recover).
	Page bool
	Warn bool
	// FastBurn is the fleet's fast-window burn rate, recorded on
	// transitions for post-incident review. It does not gate decisions.
	FastBurn float64
}

// Transition records one level change.
type Transition struct {
	At       sim.Time `json:"at_ns"`
	From     Level    `json:"-"`
	To       Level    `json:"-"`
	FromName string   `json:"from"`
	ToName   string   `json:"to"`
	// Burn is the fast-window burn rate observed at the transition.
	Burn float64 `json:"burn"`
}

// maxTransitions bounds the retained history; a long-running gateway keeps
// the most recent window, which is what an incident review needs.
const maxTransitions = 64

// Controller is the brownout state machine. All methods are nil-safe (a
// nil controller reads as LevelNormal).
type Controller struct {
	level       Level
	lastChange  sim.Time // when level last changed
	calm        bool     // a clear (no page/warn) streak is running
	calmSince   sim.Time // when the current clear streak began
	steps       uint64
	transitions []Transition
}

// NewController builds a controller at LevelNormal.
func NewController() *Controller { return &Controller{} }

// Step feeds one pressure observation and returns the (possibly updated)
// level. Time must be monotone across calls; out-of-order observations are
// ignored.
func (c *Controller) Step(now sim.Time, sig Signals) Level {
	if c == nil {
		return LevelNormal
	}
	c.steps++
	if sig.Page || sig.Warn {
		c.calm = false
	} else if !c.calm {
		c.calm = true
		c.calmSince = now
	}
	switch {
	case sig.Page && c.level < maxLevel:
		// Escalate: immediately out of Normal, then one rung per
		// escalateHold while the page persists.
		if c.level == LevelNormal || now-c.lastChange >= escalateHold {
			c.setLevel(now, c.level+1, sig.FastBurn)
		}
	case c.calm && c.level > LevelNormal:
		// Recover: one rung per recoverHold of sustained clear signal.
		if now-c.calmSince >= recoverHold && now-c.lastChange >= recoverHold {
			c.setLevel(now, c.level-1, sig.FastBurn)
		}
	}
	return c.level
}

// setLevel moves the controller to level to and records the transition.
func (c *Controller) setLevel(now sim.Time, to Level, burn float64) {
	tr := Transition{At: now, From: c.level, To: to,
		FromName: c.level.String(), ToName: to.String(), Burn: burn}
	c.level = to
	c.lastChange = now
	if len(c.transitions) >= maxTransitions {
		copy(c.transitions, c.transitions[1:])
		c.transitions = c.transitions[:len(c.transitions)-1]
	}
	c.transitions = append(c.transitions, tr)
}

// Level returns the current degradation level (LevelNormal on nil).
func (c *Controller) Level() Level {
	if c == nil {
		return LevelNormal
	}
	return c.level
}

// ShedLow reports whether new low-priority requests must be rejected.
func (c *Controller) ShedLow() bool { return c.Level() >= LevelShedLow }

// FreezeCold reports whether requests to cold models must be rejected.
func (c *Controller) FreezeCold() bool { return c.Level() >= LevelFreeze }

// AdmitNone reports whether all new requests must be rejected.
func (c *Controller) AdmitNone() bool { return c.Level() >= LevelAdmitNone }

// OutputCap applies the LevelShrink decode-length cap to a requested output
// length, returning the granted length (at least 1 token).
func (c *Controller) OutputCap(requested int) int {
	if c == nil || requested <= 1 {
		return requested
	}
	if c.Level() < LevelShrink {
		return requested
	}
	// requested >= 2, so the grant is at least one token.
	return int(float64(requested) * shrinkScale)
}

// Snapshot is the controller's externally visible state, served by
// /debug/overload and folded into Report.
type Snapshot struct {
	Level       string       `json:"level"`
	LevelValue  int          `json:"level_value"`
	SinceS      float64      `json:"since_s"` // virtual time of the last change
	Steps       uint64       `json:"steps"`
	Transitions []Transition `json:"transitions"`
}

// Snapshot returns a copy of the controller state (zero value on nil).
func (c *Controller) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{Level: LevelNormal.String()}
	}
	return Snapshot{
		Level:       c.level.String(),
		LevelValue:  int(c.level),
		SinceS:      time.Duration(c.lastChange).Seconds(),
		Steps:       c.steps,
		Transitions: append([]Transition(nil), c.transitions...),
	}
}
