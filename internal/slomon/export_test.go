package slomon

import "aegaeon/internal/sim"

// ObserveToken records one produced token. Nil-safe.
func (m *Monitor) ObserveToken(o TokenObs) { m.ObserveTokens([]TokenObs{o}) }

// Advance moves the monitor's clock forward (rotating window buckets and
// re-evaluating alert states) without recording any token. Call it
// periodically on idle systems so alerts decay as windows drain. Nil-safe.
func (m *Monitor) Advance(now sim.Time) {
	if m == nil {
		return
	}
	m.advance(now, nil)
}

// Causes returns all cause labels in enum order.
func Causes() []string { return append([]string(nil), causeNames[:]...) }
