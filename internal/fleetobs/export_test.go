package fleetobs

// Devices returns the registered device names in registration order.
func (l *Ledger) Devices() []string {
	if l == nil {
		return nil
	}
	return append([]string(nil), l.order...)
}

// Register adds a device by name without attaching occupancy capture (used
// by tests and by layers that only report host-side states for it).
func (l *Ledger) Register(name string) {
	if l == nil {
		return
	}
	l.register(name)
}
