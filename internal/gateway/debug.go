package gateway

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aegaeon/internal/cluster"
	"aegaeon/internal/obs"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
)

// The /debug endpoints are registered from the debugEndpoints table, which
// also gates each on its subsystem. The event loop owns the cluster and
// every observer, so each handler takes its copies in one read and encodes
// them after it.

// read runs fn on the event loop, passing the loop's clock: the one way a
// handler reads loop-owned state. fn takes copies, and the handler encodes
// them once read returns, so no encoding runs on the loop. After the driver
// has stopped, fn runs on the handler's goroutine instead, one read at a
// time (sim.Driver.Call), so the surfaces keep serving the final state.
func (g *Gateway) read(fn func(now sim.Time)) {
	_ = g.drv.Call(func() { fn(g.cl.VirtualNow()) })
}

// prefixStats copies each deployment's prefix-cache statistics, nil without
// a cache. Loop only.
func (g *Gateway) prefixStats() map[string]prefixcache.Stats {
	caches := g.cl.PrefixCaches()
	if len(caches) == 0 {
		return nil
	}
	out := make(map[string]prefixcache.Stats, len(caches))
	for name, pc := range caches {
		out[name] = pc.Stats()
	}
	return out
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
	var (
		events               []obs.Event
		total, switchesTotal uint64
		switches             []obs.SwitchRecord
		requests             []obs.RequestTimeline
	)
	g.read(func(sim.Time) {
		events, total = c.Ring().Events(), c.Ring().Total()
		switches, switchesTotal = c.Switches()
		requests = c.Requests(last)
	})
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
	if len(switches) > last {
		switches = switches[len(switches)-last:]
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"events_total":   total,
		"events":         flat,
		"requests":       requests,
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
	var t obs.RequestTimeline
	var ok bool
	g.read(func(sim.Time) { t, ok = g.opts.Obs.Request(id) })
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
	var (
		virtual sim.Time
		gpus    []cluster.GPUInfo
		engines []obs.GPUUtilization
	)
	g.read(func(now sim.Time) {
		virtual, gpus, engines = now, g.cl.GPUInfos(), g.opts.Obs.Utilizations(now, window)
	})
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"virtual_time_s": virtual.Seconds(),
		"window_s":       window.Seconds(),
		"instances":      gpus,
		"engines":        engines,
	})
}

func (g *Gateway) handleDebugPerfetto(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="aegaeon-trace.json"`)
	// The copy is one instant of the collector; the encoding, the heavy part,
	// runs off the loop. Headers are gone once it starts; an error is best
	// effort.
	var trace *obs.PerfettoTrace
	g.read(func(sim.Time) { trace = g.opts.Obs.PerfettoTrace() })
	_ = trace.Write(w, nil)
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
	var snaps map[string]prefixcache.Stats
	g.read(func(sim.Time) { snaps = g.prefixStats() })
	out := make([]deployment, 0, len(snaps))
	for _, name := range sortedStringKeys(snaps) {
		st := snaps[name]
		out = append(out, deployment{name, st.HitRatio(), st.SavedRatio(), st})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"deployments": out})
}

// handleSnapshot serves the JSON of what snap renders at the loop's clock:
// a snapshot schema's row, or the metadata store's view.
func (g *Gateway) handleSnapshot(snap func(now sim.Time) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var v any
		g.read(func(now sim.Time) { v = snap(now) })
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(v)
	}
}
