package gateway

import "time"

// InFlight returns the number of admitted, unfinished requests.
func (g *Gateway) InFlight() (n int) {
	_ = g.drv.Call(func() { n = g.inflight })
	return n
}

// Admitted returns the total number of requests ever admitted.
func (g *Gateway) Admitted() (n uint64) {
	_ = g.drv.Call(func() { n = g.admitted })
	return n
}

// admit runs admitRequest on the event loop and returns its verdict as a
// tuple.
func (g *Gateway) admit(model string, retryAttempt int) (ok bool, code int, reason string, retryAfter time.Duration) {
	var v verdict
	_ = g.drv.Call(func() { v = g.admitRequest(model, retryAttempt) })
	return v.ok, v.code, v.reason, v.retryAfter
}

// release frees the admission slot an admit took, as the request's end
// would.
func (g *Gateway) release(model string) {
	_ = g.drv.Call(func() { g.releaseSlot(model) })
}
