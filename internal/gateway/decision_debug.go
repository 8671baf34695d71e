package gateway

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"aegaeon/internal/decision"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
)

// The decision-provenance endpoints surface the journal live:
//
//	GET /debug/decisions?kind=shed&last=N   recent records from the ring
//	GET /debug/why/{id}                     one request's decision chain,
//	                                        joined with its span timeline

func (g *Gateway) handleDebugDecisions(w http.ResponseWriter, r *http.Request) {
	last := 100
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSONError(w, http.StatusBadRequest, "last must be a positive integer")
			return
		}
		last = n
	}
	kind := r.URL.Query().Get("kind")
	j := g.opts.Decisions
	var d decisionCounts
	var recs []decision.Record
	g.read(func(sim.Time) { d, recs = decisionCountsOf(j), j.Recent(last, kind) })
	type countEntry struct {
		Kind    string `json:"kind"`
		Outcome string `json:"outcome"`
		N       uint64 `json:"n"`
	}
	outCounts := make([]countEntry, len(d.counts))
	for i, c := range d.counts {
		outCounts[i] = countEntry{Kind: c.Kind, Outcome: c.Outcome, N: c.N}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"total":            d.total,
		"tracked_requests": d.tracked,
		"counts":           outCounts,
		"records":          recs,
	})
}

// handleDebugWhy answers "why did this request end up the way it did": the
// request's full decision chain (admission verdict, routing scores, sheds,
// switches it rode along, its terminal record) joined — when the
// observability collector is also configured — with its span timeline, so
// the decisions line up against what actually executed.
func (g *Gateway) handleDebugWhy(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/why/")
	if id == "" || strings.Contains(id, "/") {
		writeJSONError(w, http.StatusBadRequest, "usage: /debug/why/{id}")
		return
	}
	var chain []decision.Record
	var t obs.RequestTimeline
	var timed bool
	g.read(func(sim.Time) {
		chain = g.opts.Decisions.Chain(id)
		t, timed = g.opts.Obs.Request(id)
	})
	if len(chain) == 0 {
		writeJSONError(w, http.StatusNotFound, "no decision chain for request %q (evicted or never seen)", id)
		return
	}
	out := map[string]any{
		"request": id,
		"chain":   chain,
	}
	if timed {
		out["timeline"] = t
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// decisionCounts is a copy of the journal's counters, for /debug/decisions
// and /metrics.
type decisionCounts struct {
	counts  []decision.KindCount
	total   uint64
	tracked int
}

// decisionCountsOf copies j's counters. Loop only.
func decisionCountsOf(j *decision.Journal) decisionCounts {
	return decisionCounts{counts: j.Counts(), total: j.Total(), tracked: j.TrackedRequests()}
}
