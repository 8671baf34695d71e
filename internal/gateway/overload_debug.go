package gateway

import (
	"encoding/json"
	"net/http"

	"aegaeon/internal/core"
)

// handleDebugOverload reports the overload-control plane: brownout level and
// transition history, the predictive estimator's live inputs, the retry
// budget, and rejection counts by overload reason.
func (g *Gateway) handleDebugOverload(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	est := EstimateTTFT(g.depthAtLocked(0), g.switchEst, g.tput, 150, core.DefaultMaxGroupSize)
	estimator := map[string]any{
		"queue_depth":          g.inflight,
		"throughput_tok_per_s": g.tput,
		"switch_cost_s":        g.switchEst.Seconds(),
		"group_size":           core.DefaultMaxGroupSize,
		"ttft_target_s":        g.ttftTarget.Seconds(),
		"est_ttft_150tok_s":    est.Seconds(),
	}
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
		"estimator":    estimator,
		"retry_budget": budget,
		"rejected":     rejected,
	})
}

// depthAtLocked returns the admitted-but-unfinished count at rank or above.
// Must be called with g.mu held.
func (g *Gateway) depthAtLocked(rank int) int {
	depth := 0
	for i := rank; i < len(g.queuedPrio); i++ {
		depth += g.queuedPrio[i]
	}
	return depth
}

// overloadLevel returns the controller's numeric level for /metrics (0 when
// overload control is off).
func (g *Gateway) overloadLevel() int {
	if g.ctl == nil {
		return 0
	}
	return int(g.ctl.Level())
}
