package market

import "aegaeon/internal/sim"

// Spot reports whether spot pricing (and so reclaim risk) is active.
func (m *Market) Spot() bool { return m != nil && m.cfg.Spot }

// Rate returns the device's current $/GPU-hour, or 0 if unknown.
func (m *Market) Rate(name string) float64 {
	if m == nil {
		return 0
	}
	if d := m.devices[name]; d != nil {
		return d.rate
	}
	return 0
}

// UnderNotice reports whether the device has an open preemption notice.
func (m *Market) UnderNotice(name string) bool {
	if m == nil {
		return false
	}
	d := m.devices[name]
	return d != nil && d.underNotice
}

// Deadline returns the device's revocation deadline while under notice.
func (m *Market) Deadline(name string) (sim.Time, bool) {
	if m == nil {
		return 0, false
	}
	if d := m.devices[name]; d != nil && d.underNotice {
		return d.deadline, true
	}
	return 0, false
}

// NoteError records a device error; at the configured threshold the device
// is disqualified from placement (error-rate eviction).
func (m *Market) NoteError(name string) {
	if m == nil {
		return
	}
	d := m.devices[name]
	if d == nil {
		return
	}
	d.errors++
	if d.errors >= errorEvict && !d.disqualified {
		d.disqualified = true
		m.stats.Disqualifications++
	}
}

// ClassFor returns the registered device's class, or nil if unknown.
func (m *Market) ClassFor(name string) *Class {
	if m == nil {
		return nil
	}
	if d := m.devices[name]; d != nil {
		return d.class
	}
	return nil
}

// ThrottleFactor returns the device's current compute slowdown (1 = none).
func (m *Market) ThrottleFactor(name string) float64 {
	if m == nil {
		return 1
	}
	if d := m.devices[name]; d != nil && d.throttle > 1 {
		return d.throttle
	}
	return 1
}

// ClassNames lists every built-in class name in capability order.
func ClassNames() []string {
	return []string{"H800", "H20", "A10", "RTX4090", "RTX3090"}
}
