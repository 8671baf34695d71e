package gateway

import (
	"encoding/json"
	"net/http"

	"aegaeon/internal/fleetobs"
)

// fleetSnapshot renders the cluster's fleet ledger at the current virtual
// time.
func (g *Gateway) fleetSnapshot() *fleetobs.Snapshot {
	return g.cl.Fleet().Snapshot(g.virtualNow())
}

// handleDebugFleet serves GET /debug/fleet: the full fleet utilization
// snapshot — per-device state integrals (every GPU-second classified), the
// recent state-segment timeline behind the dashboard heatmap, per-model
// goodput and occupancy shares, and fleet rollups (switch-overhead ratio,
// GPU-hours, cost). conservation_errors is non-empty only if the ledger's
// accounting invariant broke — it is asserted empty in tests and CI. 404
// when the cluster was built without a fleet ledger.
func (g *Gateway) handleDebugFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if g.cl.Fleet() == nil {
		writeJSONError(w, http.StatusNotFound, "fleet accounting disabled (cluster built without a fleet ledger)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.fleetSnapshot())
}
