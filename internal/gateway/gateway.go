// Package gateway is the live serving front end of Fig. 5's proxy layer:
// an OpenAI-style HTTP API that bridges wall-clock concurrency to the
// deterministic simulation core. Each completion reaches the
// single-threaded event loop through one sim.Driver Call, which runs the
// edge's admission control (bounded per-model queues, a token-bucket rate
// limit, and saturation backpressure, shedding load with 429/503 instead of
// letting queues grow without bound) and submits what it admits; tokens
// stream back to clients over SSE as the token-level scheduler emits them.
// The loop is the only writer of admission state, so the gateway takes no
// lock. Overload policy is the scheduler's alone: the
// handler waits for its admission verdict before writing a status line, so
// a request shed on arrival gets a 503 naming the scheduler's reason.
// Shutdown drains gracefully: admission stops, in-flight decodes finish
// (accelerated to full simulation speed), and only then does the event loop
// stop.
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/cluster"
	"aegaeon/internal/core"
	"aegaeon/internal/decision"
	"aegaeon/internal/metrics"
	"aegaeon/internal/obs"
	"aegaeon/internal/overload"
	"aegaeon/internal/sim"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// Options tunes the gateway.
type Options struct {
	// Speedup has no effect: the sim.Driver paces the gateway at the
	// speedup sim.NewDriver was given. bench/perf/gateway.go still sets it,
	// so it stays until that caller drops it.
	Speedup float64
	// MaxQueuePerModel bounds admitted-but-unfinished requests per model;
	// beyond it the gateway answers 429 (default 256).
	MaxQueuePerModel int
	// MaxInFlight bounds total admitted requests — the proxy for VRAM/KV
	// pool saturation; beyond it the gateway answers 503 (default 1024).
	MaxInFlight int
	// RatePerSec refills the admission token bucket (0 = unlimited).
	RatePerSec float64
	// Burst is the token bucket capacity (default 16).
	Burst int
	// Obs, when non-nil, is the observability collector backing the /debug
	// endpoints. A nil collector keeps the serving hot path allocation-free
	// and makes /debug/* answer 404.
	Obs *obs.Collector
	// SLOMon, when non-nil, is the live SLO monitor backing /debug/slo,
	// /debug/slo/alerts, the /debug/dash dashboard, and the per-model SLO
	// families on /metrics. Nil makes those endpoints answer 404.
	SLOMon *slomon.Monitor
	// Decisions, when non-nil, is the decision-provenance journal backing
	// /debug/decisions, /debug/why/{id}, and the aegaeon_decision_* metric
	// families. Every edge admission verdict (accept or reject, with its
	// inputs) is journaled under the request's ID so chains join the
	// scheduler-side records. Share the same journal with
	// cluster.Config.Decisions. Nil keeps admission allocation-free and makes
	// the decision endpoints answer 404.
	Decisions *decision.Journal
	// Pprof also mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ on the gateway mux, so CPU and heap profiles of the
	// live serving path are one curl away.
	Pprof bool
}

const (
	quantileSamples = 8192 // bound of the TTFT/TBT reservoirs
	// breakerThreshold trips a model's circuit breaker after that many
	// consecutive failures; breakerCooldown is how long it stays open
	// before a probe. Breakers guard HTTP admission on the wall clock.
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
	// maxTokensCap caps per-request max_tokens.
	maxTokensCap = 4096
	// shedFraction is the occupancy (fraction of MaxInFlight) above which
	// the gateway degrades gracefully: requests to cold models — those with
	// no admitted work, whose service would force an extra model switch —
	// are shed with 503 while warm models keep flowing.
	shedFraction = 0.9
	// retryRatio is the overload retry budget's deposit per fresh request
	// (retries may be at most ~10% of fresh traffic in steady state), and
	// retryBurst its capacity.
	retryRatio = 0.1
	retryBurst = 32
)

// overloadReasons are the admission-rejection reasons of overload control,
// pre-seeded so their metric series exist at zero from first scrape: the
// core's arrival sheds and the edge's retry budget.
var overloadReasons = []string{
	core.ShedAdmitNone, core.ShedLowPriority, core.ShedColdFreeze, core.ShedDoomed,
	"retry_budget",
}

func (o *Options) defaults() {
	if o.MaxQueuePerModel <= 0 {
		o.MaxQueuePerModel = 256
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 1024
	}
	if o.Burst <= 0 {
		o.Burst = 16
	}
}

// Gateway serves live traffic against a cluster running on a sim.Driver.
type Gateway struct {
	drv   *sim.Driver
	cl    *cluster.Cluster
	opts  Options
	parts assemble.Parts // the snapshot schemas' subsystems, as the gateway sees them

	// What HTTP goroutines write is atomic; everything below it is
	// written only on the event loop.
	tokens   atomic.Uint64      // tokens streamed to clients
	statuses [600]atomic.Uint64 // HTTP code -> responses
	draining atomic.Bool        // set by Shutdown; admission and /healthz read it

	nextID    uint64
	admitted  uint64 // requests past both gates: the edge's and the core's
	inflight  int
	queued    map[string]int // model -> admitted-but-unfinished
	completed uint64
	failed    uint64            // requests that finished Failed (cleanly rejected mid-flight)
	aborted   uint64            // requests aborted on client disconnect
	rejected  map[string]uint64 // reason -> count
	breakers  map[string]*breaker
	bucket    tokenBucket
	jot       decision.Scratch // an admission record's inputs
	drained   chan struct{}
	drainOnce sync.Once

	// Overload-control state. ctl is the cluster's brownout controller, nil
	// when overload control is off; the core's admission applies its levels,
	// the edge only steps it on a tick and keeps the retry budget.
	ctl            *overload.Controller
	retry          retryBudget
	retryExhausted uint64
	ovlRejected    map[string]uint64 // overload rejection reason -> count
	brownStop      chan struct{}
	brownOnce      sync.Once

	ttft *metrics.Reservoir
	tbt  *metrics.Reservoir
	// Exact-count histograms alongside the reservoir quantiles: scrape-based
	// SLO alerting needs cumulative buckets, not subsampled percentiles.
	ttftHist *metrics.Histogram
	tbtHist  *metrics.Histogram
}

// New builds a gateway over a cluster whose engine is owned by drv. Start
// must be called before serving traffic.
func New(drv *sim.Driver, cl *cluster.Cluster, opts Options) *Gateway {
	opts.defaults()
	g := &Gateway{
		drv:  drv,
		cl:   cl,
		opts: opts,
		parts: assemble.Parts{Obs: opts.Obs, SLOMon: opts.SLOMon, Fleet: cl.Fleet(),
			Market: cl.Market(), Decisions: opts.Decisions},
		queued:    map[string]int{},
		rejected:  map[string]uint64{},
		breakers:  map[string]*breaker{},
		bucket:    newTokenBucket(opts.RatePerSec, opts.Burst, time.Now()),
		brownStop: make(chan struct{}),
		drained:   make(chan struct{}),
		ttft:      metrics.NewReservoir(quantileSamples),
		tbt:       metrics.NewReservoir(quantileSamples),
		// 10ms..~41s and 2.5ms..~10s: wide enough to bucket both snappy
		// token streams and deeply queued overload tails.
		ttftHist: metrics.NewHistogram(metrics.ExponentialBounds(0.01, 2, 12)...),
		tbtHist:  metrics.NewHistogram(metrics.ExponentialBounds(0.0025, 2, 12)...),
	}
	if g.ctl = cl.Overload(); g.ctl != nil {
		g.retry = newRetryBudget(retryRatio, retryBurst)
		g.ovlRejected = make(map[string]uint64, len(overloadReasons))
		for _, r := range overloadReasons {
			g.ovlRejected[r] = 0
		}
	}
	return g
}

// Start launches the real-time event loop and, with overload control, the
// brownout controller loop.
func (g *Gateway) Start() {
	g.drv.Start()
	if g.ctl != nil {
		go g.brownoutLoop()
	}
}

// brownoutLoop steps the cluster's brownout controller on the wall clock,
// so the level escalates and recovers even when no admissions arrive to
// step it. The step runs on the event loop (a Post), keeping controller
// hysteresis in the same clock domain as the scheduler's admission-path
// steps, and under the same signal rule.
func (g *Gateway) brownoutLoop() {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-g.brownStop:
			return
		case <-tick.C:
			if err := g.drv.Post(g.cl.StepOverload); err != nil {
				return // driver stopped
			}
		}
	}
}

// debugEndpoint is one row of the /debug registration table: a path, the
// one-line description the index page shows, the subsystem gate, and the
// handler. Registering through the table keeps the index page complete by
// construction, and Handler applies the gate and the GET-only check to every
// row, so no handler repeats them.
type debugEndpoint struct {
	Path string `json:"path"`
	Desc string `json:"desc"`
	gate gate
	h    http.HandlerFunc
}

// gate says whether a debug route's subsystem is present, and the message
// its 404 names when it is not.
type gate struct {
	on  bool
	off string
}

// debugEndpoints is the full /debug surface. Entries whose backing subsystem
// was not configured still register (they answer 404 with a message naming
// the missing option), so the index enumerates everything the gateway can do.
func (g *Gateway) debugEndpoints() []debugEndpoint {
	// The snapshot schemas gate their subsystems' routes and serve their own.
	gates := map[string]gate{}
	snapshots := map[string]debugEndpoint{}
	for _, s := range assemble.Schemas {
		gates[s.Name] = gate{s.Has(&g.parts), s.Off}
		snap := func(now sim.Time) any { return s.Snapshot(&g.parts, now) }
		snapshots[s.Name] = debugEndpoint{"/debug/" + s.Name, s.Debug, gates[s.Name], g.handleSnapshot(snap)}
	}
	var (
		always      = gate{on: true}
		collector   = gate{g.opts.Obs != nil, "observability disabled (no collector configured)"}
		monitor     = gates["slo"]
		brownout    = gate{g.ctl != nil, "overload control disabled (cluster built without an overload controller)"}
		prefixCache = gate{len(g.cl.PrefixCaches()) > 0, "prefix cache disabled (no deployment configured with one)"}
		journal     = gates["why"]
	)
	eps := []debugEndpoint{
		{"/debug/trace", "recent flat events + request span timelines (?last=N)", collector, g.handleDebugTrace},
		{"/debug/requests/{id}", "one request's full span tree", collector, g.handleDebugRequest},
		{"/debug/gpus", "per-engine utilization + current occupant model (?window=30s)", collector, g.handleDebugGPUs},
		{"/debug/perfetto", "Chrome trace-event JSON export (load in ui.perfetto.dev)", collector, g.handleDebugPerfetto},
		snapshots["slo"],
		{"/debug/slo/alerts", "burn-rate alert states", monitor, g.handleDebugSLOAlerts},
		{"/debug/slo/stream", "SSE stream of SLO snapshots", monitor, g.handleDebugSLOStream},
		{"/debug/dash", "HTML dashboard (SLO + fleet heatmap)", monitor, g.handleDebugDash},
		{"/debug/overload", "brownout controller level and signals", brownout, g.handleDebugOverload},
		{"/debug/prefix", "global prefix cache stats and residency", prefixCache, g.handleDebugPrefix},
		snapshots["fleet"],
		snapshots["market"],
		{"/debug/decisions", "decision-provenance ring (?kind=shed&last=N)", journal, g.handleDebugDecisions},
		{"/debug/why/{id}", "one request's decision chain joined with its spans", journal, g.handleDebugWhy},
		{"/debug/metastore", "control-plane view: store mode, op counters, watches, availability", always,
			g.handleSnapshot(func(sim.Time) any { return g.cl.Store().View() })},
	}
	if g.opts.Pprof {
		eps = append(eps,
			debugEndpoint{"/debug/pprof/", "net/http/pprof profile index", always, pprof.Index},
			debugEndpoint{"/debug/pprof/cmdline", "process command line", always, pprof.Cmdline},
			debugEndpoint{"/debug/pprof/profile", "CPU profile (?seconds=N)", always, pprof.Profile},
			debugEndpoint{"/debug/pprof/symbol", "symbol lookup", always, pprof.Symbol},
			debugEndpoint{"/debug/pprof/trace", "execution trace (?seconds=N)", always, pprof.Trace},
		)
	}
	return eps
}

// muxPattern maps a table path to its ServeMux pattern: "{id}" suffixes
// become trailing-slash subtree registrations.
func muxPattern(path string) string {
	if i := strings.Index(path, "{"); i >= 0 {
		return path[:i]
	}
	return path
}

// getOnly rejects every non-GET method with 405 before the handler runs, so
// the whole /debug/* surface is uniformly read-only. pprof's symbol endpoint
// is the one POST-accepting exception and is registered unwrapped.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		h(w, r)
	}
}

// handleDebugIndex lists every registered /debug endpoint with its
// description — the human entry point to the debug surface.
func (g *Gateway) handleDebugIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"endpoints": g.debugEndpoints()})
}

// Handler returns the gateway's HTTP mux:
//
//	POST /v1/completions   serve a completion (SSE stream or JSON)
//	GET  /v1/models        the served model catalog
//	GET  /metrics          Prometheus text exposition
//	GET  /healthz          liveness (503 while draining)
//	GET  /debug            index of every registered debug endpoint
//	GET  /debug/...        the debug surface (see /debug; GET only)
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/completions", g.handleCompletions)
	mux.HandleFunc("/v1/models", g.handleModels)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/debug", getOnly(g.handleDebugIndex))
	mux.HandleFunc("/debug/", getOnly(g.handleDebugIndex))
	for _, ep := range g.debugEndpoints() {
		h := ep.h
		if !ep.gate.on {
			off := ep.gate.off
			h = func(w http.ResponseWriter, r *http.Request) {
				writeJSONError(w, http.StatusNotFound, "%s", off)
			}
		}
		if ep.Path != "/debug/pprof/symbol" {
			h = getOnly(h)
		}
		mux.HandleFunc(muxPattern(ep.Path), h)
	}
	return mux
}

// Shutdown drains gracefully: stop admitting, accelerate the simulation so
// in-flight decodes finish at full speed, wait for the last request, then
// stop the event loop. Returns ctx.Err() if the deadline expires first (the
// loop is stopped regardless).
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.brownOnce.Do(func() { close(g.brownStop) })
	// Every admission that runs after this store is turned away, so no slot
	// is taken after the Call below counts them.
	g.draining.Store(true)
	_ = g.drv.Call(func() {
		if g.inflight == 0 {
			g.closeDrained()
		}
		// Health loops self-reschedule; they must stop before the drain
		// accelerates, or the event loop would chase an unbounded horizon
		// and never take another injected function.
		g.cl.StopHealth()
	})
	g.drv.Accelerate()
	var err error
	select {
	case <-g.drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	g.drv.Stop()
	return err
}

// closeDrained signals that a draining gateway's last request ended. Loop
// only.
func (g *Gateway) closeDrained() {
	g.drainOnce.Do(func() { close(g.drained) })
}

// breakerFor returns model's circuit breaker, creating it closed. Loop only.
func (g *Gateway) breakerFor(model string) *breaker {
	br := g.breakers[model]
	if br == nil {
		br = &breaker{now: time.Now}
		g.breakers[model] = br
	}
	return br
}

// verdict is the edge's admission verdict on one request. inflight and
// queued are the occupancy and the model's queue depth it weighed, counting
// the request when admitted: its admission record's evidence.
type verdict struct {
	ok               bool
	code             int
	reason           string
	retryAfter       time.Duration // accompanies 503s
	inflight, queued int
}

// admitRequest runs the edge's admission control for one request to model:
// the HTTP-side gates only (draining, saturation, the model's breaker, cold
// shedding near saturation, the per-model queue, the rate limit and, with
// overload control, the retry budget). Overload policy itself is the core's:
// SubmitLive delivers its verdict. When admitted, the caller owns one
// admission slot and must release it via releaseSlot, which finish calls
// when the request ends (served, failed, shed or aborted). Loop only.
func (g *Gateway) admitRequest(model string, retryAttempt int) verdict {
	shed := int(float64(g.opts.MaxInFlight) * shedFraction)
	v := verdict{retryAfter: time.Second}
	switch {
	case g.draining.Load():
		v.code, v.reason = http.StatusServiceUnavailable, "draining"
	case g.inflight >= g.opts.MaxInFlight:
		v.code, v.reason = http.StatusServiceUnavailable, "saturated"
	default:
		if brOK, ra := g.breakerFor(model).allow(); !brOK {
			v.code, v.reason, v.retryAfter = http.StatusServiceUnavailable, "circuit_open", ra
			break
		}
		switch {
		case g.inflight > 0 && g.inflight >= shed && g.queued[model] == 0:
			// Degraded mode: near saturation, admitting a cold model would
			// force an extra auto-scaling switch; shed it while warm models
			// keep flowing. An idle gateway is never near saturation, even
			// when the threshold rounds down to zero (MaxInFlight 1).
			v.code, v.reason = http.StatusServiceUnavailable, "shed_cold_model"
		case g.queued[model] >= g.opts.MaxQueuePerModel:
			v.code, v.reason = http.StatusTooManyRequests, "queue_full"
		case !g.bucket.allow(time.Now()):
			v.code, v.reason = http.StatusTooManyRequests, "rate_limited"
		case g.ctl != nil && retryAttempt > 0 && !g.retry.spend():
			v.code, v.reason = http.StatusServiceUnavailable, "retry_budget"
			g.retryExhausted++
			g.ovlRejected[v.reason]++
		default:
			if g.ctl != nil && retryAttempt == 0 {
				g.retry.deposit()
			}
			g.inflight++
			g.queued[model]++
			return verdict{ok: true, code: http.StatusOK, inflight: g.inflight, queued: g.queued[model]}
		}
	}
	g.rejected[v.reason]++
	v.inflight, v.queued = g.inflight, g.queued[model]
	return v
}

// journalAdmission records the edge admission verdict v on request id with
// the evidence the decision weighed: occupancy, the model's queue depth, the
// request's tier and size and, with overload control, the brownout level
// the core will judge it under. It runs on the event loop and is stamped
// with the loop's clock, so the request's later scheduler records are
// stamped no earlier. Without a journal it does nothing.
func (g *Gateway) journalAdmission(id, model string, prio workload.Priority, inTok int, v verdict) {
	j := g.opts.Decisions
	if j == nil {
		return
	}
	in := [...]decision.Term{
		{Name: "inflight", Value: float64(v.inflight)},
		{Name: "queued_model", Value: float64(v.queued)},
		{Name: "priority", Value: float64(prio)},
		{Name: "input_tokens", Value: float64(inTok)},
		{Name: "overload_level"},
	}
	n := len(in) - 1
	if g.ctl != nil {
		in[n].Value = float64(g.ctl.Level())
		n++
	}
	outcome := v.reason
	if v.ok {
		outcome = "accept"
	}
	g.jot.Reset()
	j.Record(decision.Record{
		At:      g.cl.VirtualNow(),
		Kind:    decision.KindAdmission,
		Request: id,
		Model:   model,
		Outcome: outcome,
		Reason:  "gateway edge admission",
		Inputs:  g.jot.Terms(in[:n]...),
	})
}

// releaseSlot frees one admission slot of model and, when the gateway is
// draining, signals the last one. Loop only.
func (g *Gateway) releaseSlot(model string) {
	g.inflight--
	g.queued[model]--
	if g.draining.Load() && g.inflight == 0 {
		g.closeDrained()
	}
}

// finish records a request that ended and frees its admission slot. arrival
// says the request ended inside SubmitLive: if overload control shed it
// there, that is the core's admission verdict and counts as a rejection
// under the core's reason. A served or failed request feeds the model's
// circuit breaker (consecutive failures trip it open so follow-on traffic is
// shed at admission instead of queueing behind a dead partition) and the
// latency samples, taken from times, its token times. A shed is not a
// backend failure: breakers answer capacity loss, brownout answers
// shortfall, so sheds leave the breaker alone. An aborted request, whose
// client went away, is only counted. Loop only.
func (g *Gateway) finish(model string, r *core.Request, times []sim.Time, arrival bool) {
	if len(times) > 0 && r.Outcome != decision.OutcomeAborted {
		ttft := times[0] - r.Arrival
		g.ttft.AddDuration(ttft)
		g.ttftHist.ObserveDuration(ttft)
		for i := 1; i < len(times); i++ {
			g.tbt.AddDuration(times[i] - times[i-1])
			g.tbtHist.ObserveDuration(times[i] - times[i-1])
		}
	}
	reason, shed := r.ShedReason()
	switch {
	case shed && arrival:
		g.rejected[reason]++
		g.ovlRejected[reason]++
	case r.Outcome == decision.OutcomeFailed:
		g.failed++
		if !shed {
			g.breakerFor(model).failure()
		}
	case r.Outcome == decision.OutcomeAborted:
		g.aborted++
	default:
		g.completed++
		g.breakerFor(model).success()
	}
	g.releaseSlot(model)
}

func (g *Gateway) countStatus(code int) { g.statuses[code].Add(1) }

func writeJSONError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]any{"message": fmt.Sprintf(format, args...), "code": code},
	})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type entry struct {
		ID         string `json:"id"`
		Object     string `json:"object"`
		Deployment string `json:"deployment"`
	}
	routes := g.cl.Routes()
	out := make([]entry, 0, len(routes))
	for m, dep := range routes {
		out = append(out, entry{ID: m, Object: "model", Deployment: dep})
	}
	// Deterministic listing order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"object": "list", "data": out})
}

// completionRequest is the body of POST /v1/completions (OpenAI-style).
type completionRequest struct {
	Model  string `json:"model"`
	Prompt string `json:"prompt"`
	// MaxTokens is the number of tokens to generate (default 64).
	MaxTokens int `json:"max_tokens"`
	// InputTokens overrides the prompt-length estimate.
	InputTokens int  `json:"input_tokens"`
	Stream      bool `json:"stream"`
	// Priority is the request's service tier: "high", "normal" (default),
	// or "low". Overload control sheds lower tiers first.
	Priority string `json:"priority"`
	// SessionID groups the turns of one conversation. With the prefix cache
	// enabled, a turn's prompt is modeled as a deterministic stream keyed by
	// (model, session_id): each turn re-sends the growing conversation, so
	// later turns hit the prefix cached by earlier ones, and cache-aware
	// routing steers the session to the instance holding it.
	SessionID string `json:"session_id"`
}

type completionChoice struct {
	Index        int     `json:"index"`
	Text         string  `json:"text"`
	FinishReason *string `json:"finish_reason"`
}

type tokenEvent struct {
	i  int
	at sim.Time
}

func (g *Gateway) handleCompletions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		g.countStatus(http.StatusMethodNotAllowed)
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req completionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		g.countStatus(http.StatusBadRequest)
		writeJSONError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.Model == "" {
		g.countStatus(http.StatusBadRequest)
		writeJSONError(w, http.StatusBadRequest, "model is required")
		return
	}
	if _, ok := g.cl.Routes()[req.Model]; !ok {
		g.countStatus(http.StatusNotFound)
		writeJSONError(w, http.StatusNotFound, "unknown model %q", req.Model)
		return
	}
	if req.MaxTokens < 0 || req.InputTokens < 0 {
		g.countStatus(http.StatusBadRequest)
		writeJSONError(w, http.StatusBadRequest, "max_tokens and input_tokens must be non-negative")
		return
	}
	prio, perr := workload.ParsePriority(req.Priority)
	if perr != nil {
		g.countStatus(http.StatusBadRequest)
		writeJSONError(w, http.StatusBadRequest, "invalid priority %q", req.Priority)
		return
	}
	// X-Retry-Attempt: 0 (or absent) marks a fresh request; retries spend
	// from the retry budget so client retry storms cannot amplify incidents.
	retryAttempt := 0
	if v := r.Header.Get("X-Retry-Attempt"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			retryAttempt = n
		}
	}
	outTok := req.MaxTokens
	if outTok == 0 {
		outTok = 64
	}
	outTok = min(outTok, maxTokensCap)
	inTok := req.InputTokens
	if inTok <= 0 {
		// Crude tokenizer stand-in: ~4 bytes per token.
		inTok = len(req.Prompt) / 4
	}
	if inTok <= 0 {
		inTok = 1
	}
	if inTok > 16384 {
		g.countStatus(http.StatusBadRequest)
		writeJSONError(w, http.StatusBadRequest, "input too long (%d tokens)", inTok)
		return
	}

	// A session's prompt content is a deterministic stream keyed by (model,
	// session): turn n's prompt is a prefix of turn n+1's, which is exactly
	// the accumulating-context pattern the prefix cache exploits.
	var segs []workload.PromptSeg
	if req.SessionID != "" {
		segs = []workload.PromptSeg{
			{Seed: workload.SeedString(req.Model + "\x00" + req.SessionID), Len: inTok},
		}
	}
	// The channel holds every token the request can produce, so the
	// simulation goroutine never blocks on a slow client.
	f := &feed{tokens: make(chan tokenEvent, outTok), done: make(chan *core.Request, 1)}
	// One Call decides, journals and submits, at one loop instant: the id,
	// the edge gates, the admission record and, when the edge admits the
	// request, SubmitLive and the core's verdict. Nothing is written until
	// it returns, so a request the core sheds on arrival is answered with its
	// verdict, not a 200.
	_ = g.drv.Call(func() {
		g.nextID++
		f.id = fmt.Sprintf("cmpl-%d", g.nextID)
		f.v = g.admitRequest(req.Model, retryAttempt)
		g.journalAdmission(f.id, req.Model, prio, inTok, f.v)
		if !f.v.ok {
			return
		}
		// times keeps the request's token times for finish's latency
		// samples; the core judges tokens as they land and keeps none.
		var times []sim.Time
		f.req, f.err = g.cl.SubmitLive(
			workload.Request{ID: f.id, Model: req.Model, InputTokens: inTok, OutputTokens: outTok,
				Priority: prio, SessionID: req.SessionID, Segments: segs},
			func(i int, at sim.Time) {
				if times == nil {
					times = make([]sim.Time, 0, outTok)
				}
				times = append(times, at)
				select {
				case f.tokens <- tokenEvent{i, at}:
				default: // never reached: the buffer covers all tokens
				}
			},
			func(fin *core.Request) {
				// f.req is still nil while SubmitLive runs: the request ended
				// on arrival.
				g.finish(req.Model, fin, times, f.req == nil)
				f.done <- fin
				close(f.done)
			},
		)
		if f.err != nil {
			g.releaseSlot(req.Model)
		} else if _, f.shed = f.req.ShedReason(); !f.shed {
			g.admitted++
		}
	})
	switch {
	case !f.v.ok:
		g.reject(w, f.v.code, f.v.reason, f.v.retryAfter)
		return
	case f.err != nil:
		g.countStatus(http.StatusInternalServerError)
		writeJSONError(w, http.StatusInternalServerError, "%v", f.err)
		return
	case f.shed:
		// done already holds the request: the shed ended it inside SubmitLive.
		fin := <-f.done
		reason, _ := fin.ShedReason()
		g.reject(w, http.StatusServiceUnavailable, reason, fin.Overshoot+time.Second)
		return
	}

	if req.Stream {
		g.streamCompletion(w, r, req.Model, f)
		return
	}
	// The core may have capped the output (brownout shrink): it is the
	// count the response promises.
	g.collectCompletion(w, r, req.Model, inTok, f.req.OutputTokens, f)
}

// reject answers a request turned away at admission, by the edge or by the
// core: code, the reason, and a Retry-After of at least one second.
func (g *Gateway) reject(w http.ResponseWriter, code int, reason string, retryAfter time.Duration) {
	g.countStatus(code)
	w.Header().Set("Retry-After", strconv.Itoa(max(1, int(retryAfter/time.Second))))
	writeJSONError(w, code, "request rejected: %s", reason)
}

// feed carries one completion from the event loop to the handler serving
// it: the admission Call's outcome, then an admitted request's tokens and
// its end.
type feed struct {
	id   string
	v    verdict       // the edge's
	req  *core.Request // set once SubmitLive returns
	err  error         // SubmitLive's
	shed bool          // the core shed req on arrival

	tokens chan tokenEvent
	done   chan *core.Request
}

// await passes each of f's tokens to sink until the request ends, and
// returns the ended request. Each wakeup sinks every token buffered so far
// and then, unless the request ended, calls flush if it is not nil: a token
// is flushed by the wakeup that received it and never waits for a later
// one. Both completion paths end on done, not on the last token. The core
// journals a request's terminal decision record before it calls OnDone, so
// once a client holds the response, /debug/why already shows the whole
// chain. Every token is sent on the event loop before done, so the tokens
// still buffered when done arrives are the rest of the request; the caller
// flushes them with its last frame. If the client goes away first, await
// aborts the simulated request, so its KV and admission slot free now
// instead of when it would have finished, and returns nil; an abort that
// races the request's end is a no-op.
func (g *Gateway) await(r *http.Request, f *feed, sink func(tokenEvent), flush func()) *core.Request {
	for {
		var fin *core.Request
		select {
		case t := <-f.tokens:
			sink(t)
		case fin = <-f.done:
		case <-r.Context().Done():
			_ = g.drv.Post(func() { g.cl.Abort(f.req) })
			return nil
		}
		for len(f.tokens) > 0 {
			sink(<-f.tokens)
		}
		if fin != nil {
			return fin
		}
		if flush != nil {
			flush()
		}
	}
}

// streamCompletion serves a completion as SSE, one frame per token and one
// flush per wakeup of await.
func (g *Gateway) streamCompletion(w http.ResponseWriter, r *http.Request, model string, f *feed) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		g.countStatus(http.StatusInternalServerError)
		writeJSONError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// The headers leave at admission (the core's verdict) rather than with
	// the first token, so a client sees the wait for prefill as time after
	// the response began.
	flusher.Flush()
	g.countStatus(http.StatusOK)

	frames := newSSEFrames(f.id, model)
	write := func(frame []byte) {
		_, _ = w.Write(frame) // a gone client shows up as r.Context() ending
	}
	fin := g.await(r, f, func(t tokenEvent) {
		write(frames.token(t.i, t.at))
		g.tokens.Add(1)
	}, flusher.Flush)
	switch {
	case fin == nil:
		return
	case fin.Outcome == decision.OutcomeFailed:
		// Cleanly rejected mid-flight (e.g. the serving partition died with
		// no survivors): tell the client instead of pretending the stream
		// just ended.
		write(frames.errorFrame("request failed: " + fin.FailReason))
	default:
		write(frames.stop())
	}
	flusher.Flush()
}

// collectCompletion serves a completion as one JSON response.
func (g *Gateway) collectCompletion(w http.ResponseWriter, r *http.Request, model string,
	inTok, outTok int, f *feed) {
	var first, last sim.Time
	received := 0
	var text []byte
	fin := g.await(r, f, func(t tokenEvent) {
		if received == 0 {
			first = t.at
		}
		last = t.at
		text = appendTokenText(text, t.i)
		received++
	}, nil)
	if fin == nil {
		return
	}
	if fin.Outcome == decision.OutcomeFailed {
		g.countStatus(http.StatusServiceUnavailable)
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusServiceUnavailable,
			"request failed after %d/%d tokens: %s", received, outTok, fin.FailReason)
		return
	}
	if received < outTok {
		g.countStatus(http.StatusInternalServerError)
		writeJSONError(w, http.StatusInternalServerError,
			"request finished with %d/%d tokens", received, outTok)
		return
	}
	g.tokens.Add(uint64(received))
	stop := "stop"
	g.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"id":      f.id,
		"object":  "text_completion",
		"created": time.Now().Unix(),
		"model":   model,
		"choices": []completionChoice{{Index: 0, Text: string(text), FinishReason: &stop}},
		"usage": map[string]int{
			"prompt_tokens":     inTok,
			"completion_tokens": received,
			"total_tokens":      inTok + received,
		},
		"timing": map[string]float64{
			"first_token_virtual_s": time.Duration(first).Seconds(),
			"last_token_virtual_s":  time.Duration(last).Seconds(),
		},
	})
}
