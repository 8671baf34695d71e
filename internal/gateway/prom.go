package gateway

import (
	"fmt"
	"maps"
	"math"
	"net/http"
	"sort"
	"strings"

	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/market"
	"aegaeon/internal/metastore"
	"aegaeon/internal/metrics"
	"aegaeon/internal/overload"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slomon"
)

// metricsState is what /metrics reads of the loop-owned state, copied in
// one read.
type metricsState struct {
	virtual   sim.Time
	switches  uint64
	store     metastore.ControlView // op counters and availability
	faults    fault.Stats
	failovers int
	level     overload.Level
	slo       *slomon.Snapshot
	prefix    map[string]prefixcache.Stats
	fleet     *fleetobs.Snapshot
	market    *market.Snapshot
	decisions *decisionCounts // nil without a journal

	// The gateway's own admission counters and latency instruments.
	admitted, completed, failed, aborted, retryExhausted uint64
	inflight                                             int
	queued                                               map[string]int
	rejected, ovlRejected                                map[string]uint64
	breakers                                             map[string]string // model -> state
	ttft, tbt                                            summary
	ttftHist, tbtHist                                    metrics.HistogramSnapshot
}

// handleMetrics renders Prometheus text exposition format (hand-rolled; the
// repo deliberately has no dependencies).
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var s metricsState
	g.read(func(now sim.Time) {
		s = metricsState{virtual: now, switches: g.cl.Switches(), store: g.cl.Store().View(),
			faults: g.cl.FaultStats(), failovers: g.cl.Failovers(), level: g.ctl.Level(),
			slo: g.opts.SLOMon.Snapshot(now), prefix: g.prefixStats()}
		s.fleet = g.cl.Fleet().Snapshot(now)
		s.market = g.cl.Market().Snapshot(now, s.fleet)
		if j := g.opts.Decisions; j != nil {
			d := decisionCountsOf(j)
			s.decisions = &d
		}
		s.admitted, s.completed, s.failed, s.aborted = g.admitted, g.completed, g.failed, g.aborted
		s.retryExhausted, s.inflight = g.retryExhausted, g.inflight
		s.queued, s.rejected, s.ovlRejected = maps.Clone(g.queued), maps.Clone(g.rejected), maps.Clone(g.ovlRejected)
		s.breakers = make(map[string]string, len(g.breakers))
		for m, br := range g.breakers {
			s.breakers[m] = br.state.String()
		}
		s.ttft, s.tbt = summarize(g.ttft), summarize(g.tbt)
		s.ttftHist, s.tbtHist = g.ttftHist.Snapshot(), g.tbtHist.Snapshot()
	})

	b := &strings.Builder{}
	family(b, "counter", "aegaeon_gateway_requests_total", "HTTP responses by status code.")
	for code := range g.statuses {
		if n := g.statuses[code].Load(); n > 0 {
			fmt.Fprintf(b, "aegaeon_gateway_requests_total{code=\"%d\"} %d\n", code, n)
		}
	}
	family(b, "counter", "aegaeon_gateway_admitted_total", "Requests past admission control.")
	fmt.Fprintf(b, "aegaeon_gateway_admitted_total %d\n", s.admitted)
	family(b, "counter", "aegaeon_gateway_completions_total", "Requests fully served.")
	fmt.Fprintf(b, "aegaeon_gateway_completions_total %d\n", s.completed)
	family(b, "counter", "aegaeon_gateway_rejected_total", "Requests shed by admission control, by reason.")
	for _, reason := range sortedStringKeys(s.rejected) {
		fmt.Fprintf(b, "aegaeon_gateway_rejected_total{reason=%q} %d\n", reason, s.rejected[reason])
	}
	family(b, "counter", "aegaeon_gateway_tokens_streamed_total", "Tokens delivered to clients.")
	fmt.Fprintf(b, "aegaeon_gateway_tokens_streamed_total %d\n", g.tokens.Load())

	family(b, "gauge", "aegaeon_gateway_inflight", "Admitted requests not yet finished.")
	fmt.Fprintf(b, "aegaeon_gateway_inflight %d\n", s.inflight)
	family(b, "gauge", "aegaeon_gateway_queue_depth", "Admitted-but-unfinished requests per model.")
	for _, m := range sortedStringKeys(s.queued) {
		fmt.Fprintf(b, "aegaeon_gateway_queue_depth{model=%q} %d\n", m, s.queued[m])
	}
	family(b, "gauge", "aegaeon_gateway_virtual_time_seconds", "Virtual clock of the serving simulation.")
	fmt.Fprintf(b, "aegaeon_gateway_virtual_time_seconds %g\n", s.virtual.Seconds())

	writeSummary(b, "aegaeon_gateway_ttft_seconds", "Time to first token (virtual).", s.ttft)
	writeSummary(b, "aegaeon_gateway_tbt_seconds", "Time between tokens (virtual).", s.tbt)
	writeHistogram(b, "aegaeon_gateway_ttft_hist_seconds", "Time to first token (virtual), exact bucket counts.", s.ttftHist)
	writeHistogram(b, "aegaeon_gateway_tbt_hist_seconds", "Time between tokens (virtual), exact bucket counts.", s.tbtHist)

	family(b, "counter", "aegaeon_model_switches_total", "Preemptive auto-scaling model switches across instances.")
	fmt.Fprintf(b, "aegaeon_model_switches_total %d\n", s.switches)
	writeStoreMetrics(b, s.store)

	family(b, "counter", "aegaeon_gateway_failed_total", "Admitted requests that finished cleanly rejected.")
	fmt.Fprintf(b, "aegaeon_gateway_failed_total %d\n", s.failed)
	family(b, "counter", "aegaeon_gateway_aborted_total", "Requests aborted on client disconnect.")
	fmt.Fprintf(b, "aegaeon_gateway_aborted_total %d\n", s.aborted)
	family(b, "gauge", "aegaeon_gateway_breaker_state", "Per-model circuit breaker state (0 closed, 1 open, 2 half-open).")
	for _, m := range sortedStringKeys(s.breakers) {
		fmt.Fprintf(b, "aegaeon_gateway_breaker_state{model=%q,state=%q} 1\n", m, s.breakers[m])
	}

	family(b, "counter", "aegaeon_fault_events_total", "Fault-injection and recovery activity by kind.")
	for _, kv := range []struct {
		kind string
		n    uint64
	}{
		{"crash", s.faults.Crashes},
		{"recovery", s.faults.Recoveries},
		{"resumed", s.faults.Resumed},
		{"recomputed", s.faults.Recomputed},
		{"fetch_failure", s.faults.FetchFailures},
		{"fetch_retry", s.faults.FetchRetries},
		{"fetch_exhausted", s.faults.FetchExhausted},
		{"transfer_failure", s.faults.TransferFailures},
		{"transfer_retry", s.faults.TransferRetries},
		{"store_failure", s.faults.StoreFailures},
		{"store_retry", s.faults.StoreRetries},
		{"rejected", s.faults.Rejected},
	} {
		fmt.Fprintf(b, "aegaeon_fault_events_total{kind=%q} %d\n", kv.kind, kv.n)
	}
	family(b, "counter", "aegaeon_failovers_total", "Instance failovers claimed and recovered by the proxy.")
	fmt.Fprintf(b, "aegaeon_failovers_total %d\n", s.failovers)

	if g.ctl != nil {
		family(b, "gauge", "aegaeon_overload_level", "Brownout level (0 normal, 1 shed-low, 2 shrink, 3 freeze, 4 admit-none).")
		fmt.Fprintf(b, "aegaeon_overload_level %d\n", s.level)
		family(b, "counter", "aegaeon_admission_rejected_total", "Overload-control admission rejections by reason.")
		for _, reason := range sortedStringKeys(s.ovlRejected) {
			fmt.Fprintf(b, "aegaeon_admission_rejected_total{reason=%q} %d\n", reason, s.ovlRejected[reason])
		}
		family(b, "counter", "aegaeon_retry_budget_exhausted_total", "Retries rejected because the retry budget was empty.")
		fmt.Fprintf(b, "aegaeon_retry_budget_exhausted_total %d\n", s.retryExhausted)
	}

	// Each writer writes nothing for an absent subsystem.
	writeSLOMetrics(b, s.slo)
	writePrefixMetrics(b, s.prefix)
	writeFleetMetrics(b, s.fleet)
	writeMarketMetrics(b, s.market)

	writeDecisionMetrics(b, s.decisions)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// alertValue maps alert states onto the conventional 0/1/2 gauge scale.
func alertValue(state string) int {
	switch state {
	case "warn":
		return 1
	case "page":
		return 2
	}
	return 0
}

// writeSLOMetrics renders the live SLO monitor's families: fleet-wide
// gauges without labels, per-model gauges with a sorted, stable model label
// order (snapshot models are sorted by name), and miss-cause counters.
// Every family carries # HELP and # TYPE.
func writeSLOMetrics(b *strings.Builder, snap *slomon.Snapshot) {
	if snap == nil {
		return
	}
	fast := func(sc slomon.ScopeSnapshot) slomon.WindowStats { return sc.Windowed[0] }

	family(b, "gauge", "aegaeon_slo_objective", "Token attainment objective the error budget is measured against.")
	fmt.Fprintf(b, "aegaeon_slo_objective %g\n", snap.Objective)

	family(b, "gauge", "aegaeon_slo_fleet_attainment", "Fleet-wide sliding-window token SLO attainment.")
	for _, ws := range snap.Fleet.Windowed {
		fmt.Fprintf(b, "aegaeon_slo_fleet_attainment{window=%q} %g\n", ws.Window, ws.Attainment)
	}
	family(b, "gauge", "aegaeon_slo_fleet_burn_rate", "Fleet-wide error-budget burn rate per window.")
	for _, ws := range snap.Fleet.Windowed {
		fmt.Fprintf(b, "aegaeon_slo_fleet_burn_rate{window=%q} %g\n", ws.Window, ws.BurnRate)
	}
	family(b, "gauge", "aegaeon_slo_fleet_alert_state", "Fleet burn-rate alert state (0 ok, 1 warn, 2 page).")
	fmt.Fprintf(b, "aegaeon_slo_fleet_alert_state %d\n", alertValue(snap.Fleet.Alert.State))
	family(b, "gauge", "aegaeon_slo_fleet_error_budget_remaining", "Unspent fraction of the fleet's slow-window error budget.")
	fmt.Fprintf(b, "aegaeon_slo_fleet_error_budget_remaining %g\n", snap.Fleet.ErrorBudgetRemaining)
	family(b, "gauge", "aegaeon_slo_fleet_goodput_tokens_per_second", "Fleet deadline-meeting tokens per second (fast window).")
	fmt.Fprintf(b, "aegaeon_slo_fleet_goodput_tokens_per_second %g\n", fast(snap.Fleet).GoodputTPS)
	family(b, "counter", "aegaeon_slo_fleet_tokens_total", "Fleet tokens judged against their deadlines, by outcome.")
	fmt.Fprintf(b, "aegaeon_slo_fleet_tokens_total{outcome=\"met\"} %d\n", snap.Fleet.TokensMet)
	fmt.Fprintf(b, "aegaeon_slo_fleet_tokens_total{outcome=\"missed\"} %d\n", snap.Fleet.TokensMissed)
	family(b, "counter", "aegaeon_slo_fleet_missed_by_cause_total", "Fleet missed-deadline tokens by attributed root cause.")
	for _, cause := range sortedStringKeys(snap.Fleet.Causes) {
		fmt.Fprintf(b, "aegaeon_slo_fleet_missed_by_cause_total{cause=%q} %d\n", cause, snap.Fleet.Causes[cause])
	}
	family(b, "gauge", "aegaeon_slo_fleet_ttft_p99_seconds", "Fleet windowed p99 time-to-first-token.")
	fmt.Fprintf(b, "aegaeon_slo_fleet_ttft_p99_seconds %g\n", snap.Fleet.TTFT.P99S)
	family(b, "gauge", "aegaeon_slo_fleet_tbt_p99_seconds", "Fleet windowed p99 time-between-tokens.")
	fmt.Fprintf(b, "aegaeon_slo_fleet_tbt_p99_seconds %g\n", snap.Fleet.TBT.P99S)

	family(b, "gauge", "aegaeon_slo_attainment", "Per-model sliding-window token SLO attainment.")
	for _, sc := range snap.Models {
		for _, ws := range sc.Windowed {
			fmt.Fprintf(b, "aegaeon_slo_attainment{model=%q,window=%q} %g\n", sc.Model, ws.Window, ws.Attainment)
		}
	}
	family(b, "gauge", "aegaeon_slo_burn_rate", "Per-model error-budget burn rate per window.")
	for _, sc := range snap.Models {
		for _, ws := range sc.Windowed {
			fmt.Fprintf(b, "aegaeon_slo_burn_rate{model=%q,window=%q} %g\n", sc.Model, ws.Window, ws.BurnRate)
		}
	}
	family(b, "gauge", "aegaeon_slo_alert_state", "Per-model burn-rate alert state (0 ok, 1 warn, 2 page).")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_alert_state{model=%q} %d\n", sc.Model, alertValue(sc.Alert.State))
	}
	family(b, "gauge", "aegaeon_slo_error_budget_remaining", "Per-model unspent fraction of the slow-window error budget.")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_error_budget_remaining{model=%q} %g\n", sc.Model, sc.ErrorBudgetRemaining)
	}
	family(b, "gauge", "aegaeon_slo_goodput_tokens_per_second", "Per-model deadline-meeting tokens per second (fast window).")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_goodput_tokens_per_second{model=%q} %g\n", sc.Model, fast(sc).GoodputTPS)
	}
	family(b, "counter", "aegaeon_slo_tokens_total", "Per-model tokens judged against their deadlines, by outcome.")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_tokens_total{model=%q,outcome=\"met\"} %d\n", sc.Model, sc.TokensMet)
		fmt.Fprintf(b, "aegaeon_slo_tokens_total{model=%q,outcome=\"missed\"} %d\n", sc.Model, sc.TokensMissed)
	}
	family(b, "counter", "aegaeon_slo_missed_by_cause_total", "Per-model missed-deadline tokens by attributed root cause.")
	for _, sc := range snap.Models {
		for _, cause := range sortedStringKeys(sc.Causes) {
			fmt.Fprintf(b, "aegaeon_slo_missed_by_cause_total{model=%q,cause=%q} %d\n", sc.Model, cause, sc.Causes[cause])
		}
	}
	family(b, "gauge", "aegaeon_slo_ttft_p99_seconds", "Per-model windowed p99 time-to-first-token.")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_ttft_p99_seconds{model=%q} %g\n", sc.Model, sc.TTFT.P99S)
	}
	family(b, "gauge", "aegaeon_slo_tbt_p99_seconds", "Per-model windowed p99 time-between-tokens.")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_tbt_p99_seconds{model=%q} %g\n", sc.Model, sc.TBT.P99S)
	}
}

// writeStoreMetrics renders the metadata store's op counter families.
func writeStoreMetrics(b *strings.Builder, v metastore.ControlView) {
	family(b, "counter", "aegaeon_metastore_ops_total", "Metadata store operations by kind.")
	fmt.Fprintf(b, "aegaeon_metastore_ops_total{op=\"get\"} %d\n", v.Gets)
	fmt.Fprintf(b, "aegaeon_metastore_ops_total{op=\"set\"} %d\n", v.Sets)
	fmt.Fprintf(b, "aegaeon_metastore_ops_total{op=\"delete\"} %d\n", v.Deletes)
	family(b, "counter", "aegaeon_metastore_failed_ops_total", "Metadata store operations dropped by partitions.")
	fmt.Fprintf(b, "aegaeon_metastore_failed_ops_total %d\n", v.FailedOps)
}

// writePrefixMetrics renders the global prefix cache's families, summed
// across deployments (models are disjoint across deployments, so per-model
// series never collide). Per-model series are emitted in sorted model order;
// every family carries # HELP and # TYPE.
func writePrefixMetrics(b *strings.Builder, snaps map[string]prefixcache.Stats) {
	if len(snaps) == 0 {
		return
	}
	var total prefixcache.Stats
	for _, st := range snaps {
		total.Add(st)
	}
	perModel := total.PerModel
	models := sortedStringKeys(perModel)

	family(b, "counter", "aegaeon_prefix_lookups_total", "Prefix cache lookups at prefill admission, by model.")
	for _, m := range models {
		fmt.Fprintf(b, "aegaeon_prefix_lookups_total{model=%q} %d\n", m, perModel[m].Lookups)
	}
	family(b, "counter", "aegaeon_prefix_hits_total", "Prefix cache lookups that matched at least one block, by model.")
	for _, m := range models {
		fmt.Fprintf(b, "aegaeon_prefix_hits_total{model=%q} %d\n", m, perModel[m].Hits)
	}
	family(b, "counter", "aegaeon_prefix_tokens_saved_total", "Prefill tokens skipped thanks to prefix reuse, by model.")
	for _, m := range models {
		fmt.Fprintf(b, "aegaeon_prefix_tokens_saved_total{model=%q} %d\n", m, perModel[m].TokensSaved)
	}
	family(b, "counter", "aegaeon_prefix_inserts_total", "Prefix chains inserted after prefill completion.")
	fmt.Fprintf(b, "aegaeon_prefix_inserts_total %d\n", total.Inserts)
	family(b, "counter", "aegaeon_prefix_evictions_total", "Prefix entries evicted, by tier.")
	fmt.Fprintf(b, "aegaeon_prefix_evictions_total{tier=\"device\"} %d\n", total.DeviceEvictions)
	fmt.Fprintf(b, "aegaeon_prefix_evictions_total{tier=\"host\"} %d\n", total.HostEvictions)
	family(b, "counter", "aegaeon_prefix_promotions_total", "Host-tier entries promoted to a device copy on reuse.")
	fmt.Fprintf(b, "aegaeon_prefix_promotions_total %d\n", total.Promotions)
	family(b, "counter", "aegaeon_prefix_device_drops_total", "Device copies forgotten because their instance crashed.")
	fmt.Fprintf(b, "aegaeon_prefix_device_drops_total %d\n", total.DeviceDrops)

	family(b, "gauge", "aegaeon_prefix_bytes", "Bytes of KV blocks held by the prefix cache, by tier.")
	fmt.Fprintf(b, "aegaeon_prefix_bytes{tier=\"device\"} %d\n", total.DeviceBytes)
	fmt.Fprintf(b, "aegaeon_prefix_bytes{tier=\"host\"} %d\n", total.HostBytes)
	family(b, "gauge", "aegaeon_prefix_entries", "Resident prefix index entries (host tier of record).")
	fmt.Fprintf(b, "aegaeon_prefix_entries %d\n", total.HostEntries)
	family(b, "gauge", "aegaeon_prefix_device_copies", "Per-instance device copies currently resident.")
	fmt.Fprintf(b, "aegaeon_prefix_device_copies %d\n", total.DeviceCopies)
	family(b, "gauge", "aegaeon_prefix_pinned_entries", "Entries pinned by in-flight prefills (never evictable).")
	fmt.Fprintf(b, "aegaeon_prefix_pinned_entries %d\n", total.PinnedEntries)
}

// writeFleetMetrics renders the fleet utilization ledger's families. State
// integrals are time-weighted counters (every simulated GPU-second lands in
// exactly one state, so per-device `state_seconds_total` sums to wall time);
// device and model series are emitted in sorted label order; every family
// carries # HELP and # TYPE.
func writeFleetMetrics(b *strings.Builder, snap *fleetobs.Snapshot) {
	if snap == nil {
		return
	}
	devs := make([]*fleetobs.DeviceSnapshot, len(snap.Devices))
	for i := range snap.Devices {
		devs[i] = &snap.Devices[i]
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].Device < devs[j].Device })
	states := fleetobs.States()

	family(b, "counter", "aegaeon_fleet_state_seconds_total", "GPU-seconds per device by ledger state; sums to wall time per device.")
	for _, d := range devs {
		for _, s := range states {
			fmt.Fprintf(b, "aegaeon_fleet_state_seconds_total{device=%q,state=%q} %g\n",
				d.Device, s.String(), d.StatesS[s.String()])
		}
	}
	family(b, "counter", "aegaeon_fleet_gpu_seconds_total", "Wall GPU-seconds accounted across the fleet.")
	fmt.Fprintf(b, "aegaeon_fleet_gpu_seconds_total %g\n", snap.Fleet.GPUSeconds)
	family(b, "counter", "aegaeon_fleet_goodput_tokens_total", "Goodput tokens attributed per device and model.")
	for _, d := range devs {
		fmt.Fprintf(b, "aegaeon_fleet_goodput_tokens_total{device=%q} %d\n", d.Device, d.Tokens)
	}
	family(b, "counter", "aegaeon_fleet_model_tokens_total", "Goodput tokens per model across the fleet.")
	for _, m := range snap.Models {
		fmt.Fprintf(b, "aegaeon_fleet_model_tokens_total{model=%q} %d\n", m.Model, m.Tokens)
	}
	family(b, "counter", "aegaeon_fleet_model_compute_seconds_total", "Compute-state GPU-seconds attributed per model.")
	for _, m := range snap.Models {
		fmt.Fprintf(b, "aegaeon_fleet_model_compute_seconds_total{model=%q} %g\n", m.Model, m.ComputeS)
	}
	family(b, "counter", "aegaeon_fleet_cost_dollars_total", "Accumulated GPU cost at each device's hourly rate.")
	fmt.Fprintf(b, "aegaeon_fleet_cost_dollars_total %g\n", snap.Fleet.CostDollars)

	family(b, "gauge", "aegaeon_fleet_busy_fraction", "Busy (non-idle, non-faulted) fraction of fleet GPU-seconds.")
	fmt.Fprintf(b, "aegaeon_fleet_busy_fraction %g\n", snap.Fleet.BusyFraction)
	family(b, "gauge", "aegaeon_fleet_switch_overhead_ratio", "Exposed model-switch seconds over fleet GPU-seconds.")
	fmt.Fprintf(b, "aegaeon_fleet_switch_overhead_ratio %g\n", snap.Fleet.SwitchRatio)
	family(b, "gauge", "aegaeon_fleet_tokens_per_busy_gpu_second", "Fleet goodput tokens per busy GPU-second.")
	fmt.Fprintf(b, "aegaeon_fleet_tokens_per_busy_gpu_second %g\n", snap.Fleet.TokensPerBusyGPUSecond)
	family(b, "gauge", "aegaeon_fleet_device_busy_fraction", "Per-device busy fraction of wall time.")
	for _, d := range devs {
		fmt.Fprintf(b, "aegaeon_fleet_device_busy_fraction{device=%q} %g\n", d.Device, d.BusyFraction)
	}
	family(b, "gauge", "aegaeon_fleet_device_switch_overhead_ratio", "Per-device exposed switch seconds over wall time.")
	for _, d := range devs {
		fmt.Fprintf(b, "aegaeon_fleet_device_switch_overhead_ratio{device=%q} %g\n", d.Device, d.SwitchRatio)
	}
	family(b, "gauge", "aegaeon_fleet_device_faulted", "Whether the device is fail-stopped (1) or serving (0).")
	for _, d := range devs {
		v := 0
		if d.Faulted {
			v = 1
		}
		fmt.Fprintf(b, "aegaeon_fleet_device_faulted{device=%q} %d\n", d.Device, v)
	}
	family(b, "gauge", "aegaeon_fleet_kv_bytes", "GPU KV pool bytes per device (used, peak watermark, capacity).")
	for _, d := range devs {
		fmt.Fprintf(b, "aegaeon_fleet_kv_bytes{device=%q,kind=\"capacity\"} %d\n", d.Device, d.KVCapacityBytes)
		fmt.Fprintf(b, "aegaeon_fleet_kv_bytes{device=%q,kind=\"peak\"} %d\n", d.Device, d.KVPeakBytes)
		fmt.Fprintf(b, "aegaeon_fleet_kv_bytes{device=%q,kind=\"used\"} %d\n", d.Device, d.KVUsedBytes)
	}
	family(b, "gauge", "aegaeon_fleet_model_occupancy_share", "Per-model share of fleet compute GPU-seconds.")
	for _, m := range snap.Models {
		fmt.Fprintf(b, "aegaeon_fleet_model_occupancy_share{model=%q} %g\n", m.Model, m.OccupancyShare)
	}
	family(b, "gauge", "aegaeon_fleet_model_tokens_per_gpu_second", "Per-model goodput tokens per compute GPU-second.")
	for _, m := range snap.Models {
		fmt.Fprintf(b, "aegaeon_fleet_model_tokens_per_gpu_second{model=%q} %g\n", m.Model, m.TokensPerGPUSecond)
	}
	family(b, "gauge", "aegaeon_fleet_gpu_hours", "Wall GPU-hours accounted across the fleet.")
	fmt.Fprintf(b, "aegaeon_fleet_gpu_hours %g\n", snap.Fleet.GPUHours)
	family(b, "gauge", "aegaeon_fleet_conservation_errors", "Accounting-invariant violations detected at snapshot (0 in a correct build).")
	fmt.Fprintf(b, "aegaeon_fleet_conservation_errors %d\n", len(snap.ConservationErrors))
}

// writeMarketMetrics renders the spot-market model's families: per-device
// price and eligibility gauges, preemption-lifecycle counters, the
// evacuated-vs-lost KV byte split, and per-class economics. Device and class
// series are emitted in snapshot order (devices register in pool-build order;
// classes are sorted by name); every family carries # HELP and # TYPE.
func writeMarketMetrics(b *strings.Builder, snap *market.Snapshot) {
	if snap == nil {
		return
	}
	family(b, "gauge", "aegaeon_market_spot", "Whether spot pricing and reclaim risk are active (1) or on-demand (0).")
	fmt.Fprintf(b, "aegaeon_market_spot %d\n", b2i(snap.Spot))
	family(b, "gauge", "aegaeon_market_aware", "Whether preemption-aware placement and KV evacuation are on.")
	fmt.Fprintf(b, "aegaeon_market_aware %d\n", b2i(snap.Aware))

	family(b, "gauge", "aegaeon_market_device_rate_dollars_per_hour", "Current per-device price on its class's trace.")
	for _, d := range snap.Devices {
		fmt.Fprintf(b, "aegaeon_market_device_rate_dollars_per_hour{device=%q,class=%q} %g\n",
			d.Device, d.Class, d.RateDollarsPerHour)
	}
	family(b, "gauge", "aegaeon_market_device_eligible", "Whether placement may target the device (not noticed, revoked, or VRAM-starved).")
	for _, d := range snap.Devices {
		fmt.Fprintf(b, "aegaeon_market_device_eligible{device=%q,class=%q} %d\n",
			d.Device, d.Class, b2i(d.Eligible))
	}
	family(b, "gauge", "aegaeon_market_device_under_notice", "Whether the device has an open preemption notice.")
	for _, d := range snap.Devices {
		fmt.Fprintf(b, "aegaeon_market_device_under_notice{device=%q} %d\n", d.Device, b2i(d.UnderNotice))
	}
	family(b, "gauge", "aegaeon_market_device_capability_score", "Class compute relative to the strongest class, discounted by any live throttle.")
	for _, d := range snap.Devices {
		fmt.Fprintf(b, "aegaeon_market_device_capability_score{device=%q,class=%q} %g\n",
			d.Device, d.Class, d.CapabilityScore)
	}

	st := snap.Stats
	family(b, "counter", "aegaeon_market_preemptions_total", "Spot reclaim notices delivered.")
	fmt.Fprintf(b, "aegaeon_market_preemptions_total %d\n", st.Preemptions)
	family(b, "counter", "aegaeon_market_revocations_total", "Reclaim deadlines that fired (device fail-stopped).")
	fmt.Fprintf(b, "aegaeon_market_revocations_total %d\n", st.Revocations)
	family(b, "counter", "aegaeon_market_deadlines_missed_total", "Revocations that caught KV still on-device.")
	fmt.Fprintf(b, "aegaeon_market_deadlines_missed_total %d\n", st.DeadlinesMissed)
	family(b, "counter", "aegaeon_market_kv_bytes_total", "KV bytes by preemption outcome: evacuated ahead of the deadline, lost at revocation, or prefix copies re-homed to the host tier.")
	fmt.Fprintf(b, "aegaeon_market_kv_bytes_total{outcome=\"evacuated\"} %d\n", st.EvacuatedKVBytes)
	fmt.Fprintf(b, "aegaeon_market_kv_bytes_total{outcome=\"lost\"} %d\n", st.LostKVBytes)
	fmt.Fprintf(b, "aegaeon_market_kv_bytes_total{outcome=\"rehomed_prefix\"} %d\n", st.RehomedPrefixBytes)
	family(b, "counter", "aegaeon_market_throttles_total", "Thermal-throttle windows applied.")
	fmt.Fprintf(b, "aegaeon_market_throttles_total %d\n", st.Throttles)
	family(b, "counter", "aegaeon_market_price_ticks_total", "Price-trace steps across the fleet.")
	fmt.Fprintf(b, "aegaeon_market_price_ticks_total %d\n", st.PriceTicks)

	family(b, "gauge", "aegaeon_market_class_devices", "Registered devices per class.")
	for _, c := range snap.Classes {
		fmt.Fprintf(b, "aegaeon_market_class_devices{class=%q} %d\n", c.Class, c.Devices)
	}
	family(b, "gauge", "aegaeon_market_class_mean_rate_dollars_per_hour", "Mean current price across the class's devices.")
	for _, c := range snap.Classes {
		fmt.Fprintf(b, "aegaeon_market_class_mean_rate_dollars_per_hour{class=%q} %g\n", c.Class, c.MeanRate)
	}
	family(b, "counter", "aegaeon_market_class_cost_dollars_total", "Accumulated cost per class from the fleet ledger's integral.")
	for _, c := range snap.Classes {
		fmt.Fprintf(b, "aegaeon_market_class_cost_dollars_total{class=%q} %g\n", c.Class, c.CostDollars)
	}
	family(b, "gauge", "aegaeon_market_class_dollars_per_1k_tokens", "Per-class unit economics: cost over goodput tokens, times 1000.")
	for _, c := range snap.Classes {
		fmt.Fprintf(b, "aegaeon_market_class_dollars_per_1k_tokens{class=%q} %g\n", c.Class, c.DollarsPer1KTokens)
	}
	family(b, "counter", "aegaeon_market_class_preemptions_total", "Reclaim notices per class.")
	for _, c := range snap.Classes {
		fmt.Fprintf(b, "aegaeon_market_class_preemptions_total{class=%q} %d\n", c.Class, c.Preemptions)
	}
}

// writeDecisionMetrics renders the decision-provenance journal's families.
// Series come from Counts(), already sorted by kind then outcome, so label
// order is deterministic scrape to scrape; every family carries # HELP and
// # TYPE. The whole block is absent when the journal is off.
func writeDecisionMetrics(b *strings.Builder, d *decisionCounts) {
	if d == nil {
		return
	}
	family(b, "counter", "aegaeon_decision_records_total", "Journaled scheduling decisions by kind and outcome.")
	for _, c := range d.counts {
		fmt.Fprintf(b, "aegaeon_decision_records_total{kind=%q,outcome=%q} %d\n", c.Kind, c.Outcome, c.N)
	}
	family(b, "counter", "aegaeon_decision_journaled_total", "Decisions ever journaled (ring rotation does not decrement).")
	fmt.Fprintf(b, "aegaeon_decision_journaled_total %d\n", d.total)
	family(b, "gauge", "aegaeon_decision_tracked_requests", "Requests with a retained decision chain.")
	fmt.Fprintf(b, "aegaeon_decision_tracked_requests %d\n", d.tracked)
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// family writes a metric family's # HELP and # TYPE lines.
func family(b *strings.Builder, typ, name, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeHistogram renders exact cumulative buckets in the Prometheus
// histogram convention: `_bucket{le="..."}` lines ascending, a final
// `le="+Inf"` equal to `_count`, then `_sum` and `_count`.
func writeHistogram(b *strings.Builder, name, help string, s metrics.HistogramSnapshot) {
	family(b, "histogram", name, help)
	for i, bound := range s.Bounds {
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, bound, s.Cumulative[i])
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(b, "%s_sum %g\n", name, s.Sum)
	fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
}

// summaryQuantiles are the quantiles a latency summary exports.
var summaryQuantiles = [...]float64{0.5, 0.9, 0.99}

// summary is a latency reservoir as a Prometheus summary exports it: its
// quantiles at summaryQuantiles (NaN without samples) and its sample count.
type summary struct {
	q     [len(summaryQuantiles)]float64
	count uint64
}

// summarize copies what writeSummary renders of r. Loop only.
func summarize(r *metrics.Reservoir) summary {
	s := summary{count: r.Seen()}
	for i, q := range summaryQuantiles {
		s.q[i] = r.Quantile(q)
	}
	return s
}

// writeSummary renders a latency summary.
func writeSummary(b *strings.Builder, name, help string, s summary) {
	family(b, "summary", name, help)
	for i, q := range summaryQuantiles {
		if !math.IsNaN(s.q[i]) {
			fmt.Fprintf(b, "%s{quantile=\"%g\"} %g\n", name, q, s.q[i])
		}
	}
	fmt.Fprintf(b, "%s_count %d\n", name, s.count)
}

func sortedStringKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
