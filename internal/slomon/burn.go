package slomon

import (
	"aegaeon/internal/sim"
)

// AlertState is the burn-rate alert level of one scope (fleet or model).
type AlertState int

const (
	AlertOK AlertState = iota
	AlertWarn
	AlertPage
)

func (s AlertState) String() string {
	switch s {
	case AlertOK:
		return "ok"
	case AlertWarn:
		return "warn"
	case AlertPage:
		return "page"
	}
	return "unknown"
}

// burnRate is the SRE error-budget burn rate over a window: the observed
// miss rate divided by the budgeted miss rate (1 - objective). Burn 1.0
// consumes the budget exactly at the sustainable pace; burn 14.4 over a
// 1-hour window of a 30-day 99.9% SLO consumes 2% of the monthly budget.
func burnRate(met, missed uint64, objective float64) float64 {
	total := met + missed
	if total == 0 {
		return 0
	}
	budget := 1 - objective
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(missed) / float64(total)) / budget
}

// Transition is one alert state change, with the burn rates that drove it.
type Transition struct {
	At       sim.Time
	From, To AlertState
	Fast     float64
	Mid      float64
	Slow     float64
}

// maxTransitions bounds the retained transition history per scope.
const maxTransitions = 64

// alertMachine is the multi-window multi-burn-rate state machine (Google
// SRE workbook ch. 5): page when both the fast and mid windows burn hot
// (fast alone would flap on blips; mid alone would page late), warn when
// the slow and mid windows burn above the warning threshold. Hysteresis
// holds an active state until burn drops below threshold x hysteresis, and
// demotion is stepwise (page -> warn -> ok), so recovery is visible as it
// progresses rather than snapping to green.
type alertMachine struct {
	state       AlertState
	since       sim.Time
	transitions []Transition
}

func (a *alertMachine) step(now sim.Time, fast, mid, slow float64) {
	pageCond := fast >= pageBurn && mid >= pageBurn
	warnCond := slow >= warnBurn && mid >= warnBurn
	holdPage := fast >= pageBurn*hysteresis && mid >= pageBurn*hysteresis
	holdWarn := slow >= warnBurn*hysteresis && mid >= warnBurn*hysteresis

	next := a.state
	switch a.state {
	case AlertOK:
		if pageCond {
			next = AlertPage
		} else if warnCond {
			next = AlertWarn
		}
	case AlertWarn:
		if pageCond {
			next = AlertPage
		} else if !warnCond && !holdWarn {
			next = AlertOK
		}
	case AlertPage:
		if !pageCond && !holdPage {
			next = AlertWarn // stepwise demotion; a later step may clear to ok
		}
	}
	if next != a.state {
		a.transitions = append(a.transitions, Transition{
			At: now, From: a.state, To: next, Fast: fast, Mid: mid, Slow: slow,
		})
		if len(a.transitions) > maxTransitions {
			a.transitions = a.transitions[len(a.transitions)-maxTransitions:]
		}
		a.state = next
		a.since = now
	}
}
