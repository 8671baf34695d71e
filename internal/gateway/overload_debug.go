package gateway

import (
	"encoding/json"
	"net/http"

	"aegaeon/internal/overload"
	"aegaeon/internal/sim"
)

// handleDebugOverload reports the overload-control plane: brownout level and
// transition history, the retry budget, and rejection counts by overload
// reason.
func (g *Gateway) handleDebugOverload(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	budget := map[string]any{
		"tokens":    g.retry.tokens,
		"burst":     g.retry.burst,
		"ratio":     g.retry.ratio,
		"exhausted": g.retryExhausted,
	}
	rejected := make(map[string]uint64, len(g.ovlRejected))
	for k, v := range g.ovlRejected {
		rejected[k] = v
	}
	g.mu.Unlock()
	var ctl overload.Snapshot
	g.read(func(sim.Time) { ctl = g.ctl.Snapshot() })

	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"controller":   ctl,
		"retry_budget": budget,
		"rejected":     rejected,
	})
}
