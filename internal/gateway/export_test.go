package gateway

import "time"

// InFlight returns the number of admitted, unfinished requests.
func (g *Gateway) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// Admitted returns the total number of requests ever admitted.
func (g *Gateway) Admitted() uint64 { return g.admitted.Load() }

// admit runs admitRequest and returns its verdict as a tuple.
func (g *Gateway) admit(model string, retryAttempt int) (ok bool, code int, reason string, retryAfter time.Duration) {
	v := g.admitRequest(model, retryAttempt)
	return v.ok, v.code, v.reason, v.retryAfter
}
