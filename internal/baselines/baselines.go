// Package baselines implements the systems Aegaeon is evaluated against in
// §7: ServerlessLLM (request-level auto-scaling with fast model loading),
// ServerlessLLM+ (the paper's extension with oracle shortest-job-first
// scheduling), and MuxServe (static spatial multiplexing limited by GPU
// memory). It also provides the unified token-level schedulers of Fig. 6
// (prefill-first and decoding-first) used to motivate disaggregation.
package baselines

import (
	"fmt"

	"aegaeon/internal/metrics"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// Server is the common interface all served systems expose to the
// experiment harness (core.System satisfies it too).
type Server interface {
	// Submit schedules trace arrivals into the simulation.
	Submit(trace []workload.Request) error
	// Finalize computes attainment after the simulation drains.
	Finalize(end sim.Time)
	// Attainment returns token-level SLO attainment in [0,1].
	Attainment() float64
	// Completed returns fully served request count.
	Completed() int
}

// request is the baselines' runtime request state.
type request struct {
	id           string
	model        *model.Model
	arrival      sim.Time
	inputTokens  int
	outputTokens int
	tokenTimes   []sim.Time
	kvTokens     int64 // GPU KV footprint in tokens while active
	done         bool
	prefilled    bool
}

// newRequests builds the runtime requests for trace and their arrival
// times, for one Submit feed. It fails on the first request whose model is
// not in models, having built nothing the caller keeps.
func newRequests(models map[string]*model.Model, trace []workload.Request) ([]*request, []sim.Time, error) {
	reqs := make([]*request, len(trace))
	times := make([]sim.Time, len(trace))
	for i, wr := range trace {
		m, ok := models[wr.Model]
		if !ok {
			return nil, nil, fmt.Errorf("baselines: unknown model %q", wr.Model)
		}
		reqs[i] = &request{
			id: wr.ID, model: m, arrival: wr.Arrival,
			inputTokens: wr.InputTokens, outputTokens: wr.OutputTokens,
		}
		times[i] = wr.Arrival
	}
	return reqs, times, nil
}

func (r *request) contextTokens() int64 {
	return int64(r.inputTokens + len(r.tokenTimes))
}

func (r *request) projectedTokens() int64 {
	return int64(r.inputTokens + r.outputTokens)
}

// observeAll finalizes SLO accounting for a request set.
func observeAll(tr *slo.Tracker, s slo.SLO, reqs []*request, end sim.Time) {
	for _, r := range reqs {
		v := slo.Judge(s, r.arrival, r.tokenTimes)
		if !r.done {
			for i := len(r.tokenTimes); i < r.outputTokens; i++ {
				if s.Deadline(r.arrival, i) <= end {
					v.Dropped++
				}
			}
		}
		tr.Add(v)
	}
}

// switchCDF collects exposed model-switch latencies for comparison plots.
type switchCDF = metrics.CDF
