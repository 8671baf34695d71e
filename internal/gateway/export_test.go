package gateway

// InFlight returns the number of admitted, unfinished requests.
func (g *Gateway) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// Admitted returns the total number of requests ever admitted.
func (g *Gateway) Admitted() uint64 { return g.admitted.Load() }
