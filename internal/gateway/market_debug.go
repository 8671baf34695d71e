package gateway

import (
	"encoding/json"
	"net/http"

	"aegaeon/internal/market"
)

// marketSnapshot renders the cluster's spot market at the current virtual
// time, joined against the fleet ledger (when present) for class economics.
func (g *Gateway) marketSnapshot() *market.Snapshot {
	now := g.virtualNow()
	return g.cl.Market().Snapshot(now, g.cl.Fleet().Snapshot(now))
}

// handleDebugMarket serves GET /debug/market: the full spot-market snapshot —
// per-device market state (class, current price, eligibility, open notices),
// the preemption audit trail with evacuated-vs-lost KV byte accounting, and
// per-class economics ($-per-1k-tokens joined against the fleet ledger's cost
// and goodput integrals). 404 when the cluster was built without a market.
func (g *Gateway) handleDebugMarket(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if g.cl.Market() == nil {
		writeJSONError(w, http.StatusNotFound, "spot market disabled (cluster built without a market model)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.marketSnapshot())
}
