package gateway

import (
	"encoding/json"
	"maps"
	"net/http"

	"aegaeon/internal/overload"
	"aegaeon/internal/sim"
)

// handleDebugOverload reports the overload-control plane: brownout level and
// transition history, the retry budget, and rejection counts by overload
// reason.
func (g *Gateway) handleDebugOverload(w http.ResponseWriter, r *http.Request) {
	var (
		ctl      overload.Snapshot
		budget   map[string]any
		rejected map[string]uint64
	)
	g.read(func(sim.Time) {
		ctl = g.ctl.Snapshot()
		budget = map[string]any{
			"tokens":    g.retry.tokens,
			"burst":     g.retry.burst,
			"ratio":     g.retry.ratio,
			"exhausted": g.retryExhausted,
		}
		rejected = maps.Clone(g.ovlRejected)
	})

	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"controller":   ctl,
		"retry_budget": budget,
		"rejected":     rejected,
	})
}
