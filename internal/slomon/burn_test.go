package slomon

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/sim"
)

// feed pushes `perSec` tokens per second over [from, to), `missed` of which
// miss their deadline each second.
func feed(m *Monitor, from, to time.Duration, perSec, missed int) {
	for s := from; s < to; s += time.Second {
		for i := 0; i < perSec; i++ {
			at := s + time.Duration(i)*time.Second/time.Duration(perSec)
			dl := at + time.Second
			if i < missed {
				dl = at - time.Second
			}
			m.ObserveToken(TokenObs{
				Model: mid("m0"), Request: fmt.Sprintf("r-%d", s/time.Second),
				Index: 1, Arrival: 0, Deadline: dl, At: at, Prev: at - 50*time.Millisecond,
			})
		}
	}
}

// TestBurnRateAlertGolden drives the canonical incident arc and pins the
// exact alert transition sequence: a moderate burn warns, a heavy burn
// pages, recovery demotes stepwise (page -> warn -> ok) as the windows
// drain — never page -> ok directly, and no flapping in between. At the
// 0.99 objective one miss in ten tokens is burn 10.
func TestBurnRateAlertGolden(t *testing.T) {
	m := testMonitor(Config{})
	feed(m, 0, 30*time.Minute, 10, 0)              // healthy baseline
	feed(m, 30*time.Minute, 45*time.Minute, 10, 1) // moderate: burn 10 -> warn
	feed(m, 45*time.Minute, 50*time.Minute, 10, 2) // heavy: burn 20 -> page
	feed(m, 50*time.Minute, 90*time.Minute, 10, 0) // recovery
	m.Advance(90 * time.Minute)                    // let the slow window drain
	snap := m.Snapshot(90 * time.Minute)

	var seq []string
	for _, tr := range snap.Fleet.Alert.Transitions {
		seq = append(seq, tr.From+">"+tr.To)
	}
	want := []string{"ok>warn", "warn>page", "page>warn", "warn>ok"}
	if strings.Join(seq, " ") != strings.Join(want, " ") {
		t.Fatalf("transition sequence = %v, want %v\n(full: %+v)",
			seq, want, snap.Fleet.Alert.Transitions)
	}
	if snap.Fleet.Alert.State != "ok" {
		t.Fatalf("final state = %s, want ok", snap.Fleet.Alert.State)
	}
	// Transitions carry the burns that drove them: the page must show a hot
	// fast window, the recovery demotion a cooled one.
	page := snap.Fleet.Alert.Transitions[1]
	if page.Fast < pageBurn || page.Mid < pageBurn {
		t.Fatalf("page transition burns fast=%.2f mid=%.2f, want both >= %v", page.Fast, page.Mid, pageBurn)
	}
	// The per-model scope went through the same arc.
	if len(snap.Models) != 1 || snap.Models[0].Alert.State != "ok" {
		t.Fatalf("model scope state: %+v", snap.Models)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAlertHysteresisHoldsActiveState checks the hold band: an active page
// persists while burn sits between hysteresis x threshold and threshold.
func TestAlertHysteresisHoldsActiveState(t *testing.T) {
	var a alertMachine
	step := func(at time.Duration, fast, mid, slow float64) AlertState {
		a.step(sim.Time(at), fast, mid, slow)
		return a.state
	}
	if got := step(1*time.Second, 15, 15, 15); got != AlertPage {
		t.Fatalf("burn 15 from ok = %v, want page", got)
	}
	// Page threshold is 14.4, hysteresis 0.8 -> hold band [11.52, 14.4).
	if got := step(2*time.Second, 12, 12, 12); got != AlertPage {
		t.Fatalf("burn 12 inside hold band = %v, want page held", got)
	}
	if got := step(3*time.Second, 11, 11, 11); got != AlertWarn {
		t.Fatalf("burn 11 below hold band = %v, want stepwise demotion to warn", got)
	}
	// Warn threshold 3, hold band [2.4, 3).
	if got := step(4*time.Second, 2.5, 2.5, 2.5); got != AlertWarn {
		t.Fatalf("burn 2.5 inside warn hold band = %v, want warn held", got)
	}
	if got := step(5*time.Second, 0.5, 0.5, 0.5); got != AlertOK {
		t.Fatalf("burn 0.5 = %v, want ok", got)
	}
	// Both windows must be hot to page: a fast blip alone stays ok.
	if got := step(6*time.Second, 50, 0.1, 0.1); got != AlertOK {
		t.Fatalf("fast-only blip = %v, want ok (multi-window guard)", got)
	}
}

// TestAlertTransitionHistoryBounded keeps the retained history flat under a
// pathological flapping workload.
func TestAlertTransitionHistoryBounded(t *testing.T) {
	var a alertMachine
	for i := 0; i < 10*maxTransitions; i++ {
		burn := 0.0
		if i%2 == 0 {
			burn = 20
		}
		a.step(sim.Time(i)*sim.Time(time.Second), burn, burn, burn)
	}
	if len(a.transitions) > maxTransitions {
		t.Fatalf("%d transitions retained, cap %d", len(a.transitions), maxTransitions)
	}
}
