package gateway

import (
	"encoding/json"
	"net/http"
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

	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"controller":   g.ctl.Snapshot(),
		"retry_budget": budget,
		"rejected":     rejected,
	})
}

// overloadLevel returns the controller's numeric level for /metrics (0 when
// overload control is off).
func (g *Gateway) overloadLevel() int {
	if g.ctl == nil {
		return 0
	}
	return int(g.ctl.Level())
}
