package sim

// Cancelled reports whether Cancel stopped the event. Once the event's slot
// has been reused by a later event the handle is stale and reports false.
func (ev Event) Cancelled() bool {
	s := ev.live()
	return s != nil && s.cancelled
}
