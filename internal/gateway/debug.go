package gateway

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aegaeon/internal/cluster"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/market"
	"aegaeon/internal/metastore"
	"aegaeon/internal/prefixcache"
)

// The /debug endpoints are registered from the debugEndpoints table, which
// also gates each on its subsystem. Observer snapshots (collector, monitor,
// ledger, market, journal) are internally synchronized; only state the event
// loop owns goes through loopSnapshot.

// loopState is the event-loop-owned state the operator surfaces read.
type loopState struct {
	virtual   time.Duration
	switches  uint64
	store     metastore.ControlView // op counters and availability
	faults    fault.Stats
	failovers int
	gpus      []cluster.GPUInfo
	prefix    map[string]prefixcache.Stats // by deployment; nil without a cache
}

// loopSnapshot collects the loop-owned state in one driver Call and caches
// it. Once the driver has stopped it returns the cached copy, which Shutdown
// refreshes just before the stop, so counters never go backwards. Callers
// must not mutate the returned maps and slices: they are shared.
func (g *Gateway) loopSnapshot() loopState {
	var s loopState
	err := g.drv.Call(func() {
		s.virtual = g.cl.VirtualNow()
		s.switches = g.cl.Switches()
		s.store = g.cl.Store().View()
		s.faults = g.cl.FaultStats()
		s.failovers = g.cl.Failovers()
		s.gpus = g.cl.GPUInfos()
		if caches := g.cl.PrefixCaches(); len(caches) > 0 {
			s.prefix = make(map[string]prefixcache.Stats, len(caches))
			for name, pc := range caches {
				s.prefix[name] = pc.Stats()
			}
		}
	})
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		return g.loop
	}
	g.loop = s
	return s
}

// fleetAt snapshots the cluster's fleet ledger and spot market at virtual
// time now, the market joined against the ledger for class economics. Each
// is nil when the cluster has none.
func (g *Gateway) fleetAt(now time.Duration) (*fleetobs.Snapshot, *market.Snapshot) {
	fleet := g.cl.Fleet().Snapshot(now)
	return fleet, g.cl.Market().Snapshot(now, fleet)
}

func (g *Gateway) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	last := 100
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSONError(w, http.StatusBadRequest, "last must be a positive integer")
			return
		}
		last = n
	}
	c := g.opts.Obs
	events := c.Ring().Events()
	if len(events) > last {
		events = events[len(events)-last:]
	}
	type flatEvent struct {
		AtS      float64 `json:"at_s"`
		Kind     string  `json:"kind"`
		Instance string  `json:"instance,omitempty"`
		Subject  string  `json:"subject,omitempty"`
		Detail   string  `json:"detail,omitempty"`
	}
	flat := make([]flatEvent, len(events))
	for i, e := range events {
		flat[i] = flatEvent{AtS: e.At.Seconds(), Kind: e.Kind.String(),
			Instance: e.Instance, Subject: e.Subject, Detail: e.Detail()}
	}
	switches, switchesTotal := c.Switches()
	if len(switches) > last {
		switches = switches[len(switches)-last:]
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"events_total":   c.Ring().Total(),
		"events":         flat,
		"requests":       c.Requests(last),
		"switches":       switches,
		"switches_total": switchesTotal,
	})
}

func (g *Gateway) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/requests/")
	if id == "" || strings.Contains(id, "/") {
		writeJSONError(w, http.StatusBadRequest, "usage: /debug/requests/{id}")
		return
	}
	t, ok := g.opts.Obs.Request(id)
	if !ok {
		writeJSONError(w, http.StatusNotFound, "no timeline for request %q (evicted or never admitted)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(t)
}

func (g *Gateway) handleDebugGPUs(w http.ResponseWriter, r *http.Request) {
	window := 10 * time.Second
	if v := r.URL.Query().Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeJSONError(w, http.StatusBadRequest, "window must be a positive duration (e.g. 30s)")
			return
		}
		window = d
	}
	s := g.loopSnapshot()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"virtual_time_s": s.virtual.Seconds(),
		"window_s":       window.Seconds(),
		"instances":      s.gpus,
		"engines":        g.opts.Obs.Utilizations(s.virtual, window),
	})
}

func (g *Gateway) handleDebugPerfetto(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="aegaeon-trace.json"`)
	// Headers are gone once the export starts; an error is best effort.
	_ = g.opts.Obs.WritePerfetto(w)
}

// handleDebugPrefix serves per-deployment prefix-cache statistics: hit
// ratio, tokens saved, tier residency, eviction and promotion activity.
func (g *Gateway) handleDebugPrefix(w http.ResponseWriter, r *http.Request) {
	type deployment struct {
		Deployment string  `json:"deployment"`
		HitRatio   float64 `json:"hit_ratio"`
		SavedRatio float64 `json:"saved_ratio"`
		prefixcache.Stats
	}
	snaps := g.loopSnapshot().prefix
	out := make([]deployment, 0, len(snaps))
	for _, name := range sortedStringKeys(snaps) {
		st := snaps[name]
		out = append(out, deployment{name, st.HitRatio(), st.SavedRatio(), st})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"deployments": out})
}

// handleDebugFleet serves the fleet utilization snapshot: per-device state
// integrals (every GPU-second classified), the recent state-segment timeline
// behind the dashboard heatmap, per-model goodput and occupancy shares, and
// fleet rollups. conservation_errors is non-empty only if the ledger's
// accounting invariant broke; tests and CI assert it absent.
func (g *Gateway) handleDebugFleet(w http.ResponseWriter, r *http.Request) {
	fleet, _ := g.fleetAt(g.loopSnapshot().virtual)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(fleet)
}

// handleDebugMarket serves the spot-market snapshot: per-device market state
// (class, current price, eligibility, open notices), the preemption audit
// trail with evacuated-vs-lost KV byte accounting, and per-class economics.
func (g *Gateway) handleDebugMarket(w http.ResponseWriter, r *http.Request) {
	_, mkt := g.fleetAt(g.loopSnapshot().virtual)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(mkt)
}

// handleDebugMetastore serves the metadata store's view: its op counters,
// watches and availability.
func (g *Gateway) handleDebugMetastore(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.loopSnapshot().store)
}
