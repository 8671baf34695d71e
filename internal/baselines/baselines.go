// Package baselines implements the systems Aegaeon is evaluated against in
// §7: ServerlessLLM (request-level auto-scaling with fast model loading),
// ServerlessLLM+ (the paper's extension with oracle shortest-job-first
// scheduling), and MuxServe (static spatial multiplexing limited by GPU
// memory). It also provides the unified token-level schedulers of Fig. 6
// (prefill-first and decoding-first) used to motivate disaggregation.
package baselines

import (
	"fmt"

	"aegaeon/internal/engine"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/latency"
	"aegaeon/internal/memory"
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
	model        *model.Model
	arrival      sim.Time
	inputTokens  int
	outputTokens int
	tokenTimes   []sim.Time
	done         bool
	prefilled    bool
}

func (r *request) contextTokens() int64 {
	return int64(r.inputTokens + len(r.tokenTimes))
}

func (r *request) projectedTokens() int64 {
	return int64(r.inputTokens + r.outputTokens)
}

// base is what every baseline keeps the same way: the simulation it runs
// in, the requests it was given, judged against one SLO, and how many it
// completed. Embedding it provides Server's Finalize, Attainment and
// Completed, and Tracker.
type base struct {
	eng       *sim.Engine
	slo       slo.SLO
	requests  []*request
	tracker   *slo.Tracker
	completed int
}

func newBase(se *sim.Engine, s slo.SLO) base {
	return base{eng: se, slo: s, tracker: slo.NewTracker()}
}

// submit builds the runtime requests for trace and schedules them as one
// feed calling arrive. It fails on the first request whose model is not in
// models, having scheduled and recorded nothing.
func (b *base) submit(models map[string]*model.Model, trace []workload.Request, arrive func(*request)) error {
	reqs := make([]*request, len(trace))
	times := make([]sim.Time, len(trace))
	for i, wr := range trace {
		m, ok := models[wr.Model]
		if !ok {
			return fmt.Errorf("baselines: unknown model %q", wr.Model)
		}
		reqs[i] = &request{
			model: m, arrival: wr.Arrival,
			inputTokens: wr.InputTokens, outputTokens: wr.OutputTokens,
		}
		times[i] = wr.Arrival
	}
	b.requests = append(b.requests, reqs...)
	b.eng.Feed(times, func(i int) { arrive(reqs[i]) })
	return nil
}

// Finalize judges every request. An unfinished request's missing tokens
// whose deadlines passed by end count as dropped.
func (b *base) Finalize(end sim.Time) {
	for _, r := range b.requests {
		v := slo.Judge(b.slo, r.arrival, r.tokenTimes)
		if !r.done {
			for i := len(r.tokenTimes); i < r.outputTokens; i++ {
				if b.slo.Deadline(r.arrival, i) <= end {
					v.Dropped++
				}
			}
		}
		b.tracker.Add(v)
	}
}

// Attainment returns token-level SLO attainment.
func (b *base) Attainment() float64 { return b.tracker.Attainment() }

// Completed returns fully served requests.
func (b *base) Completed() int { return b.completed }

// Tracker exposes the SLO tracker.
func (b *base) Tracker() *slo.Tracker { return b.tracker }

// enginePool builds n warm-booted engines named prefix0, prefix1, … for
// models at TP degree tp, and indexes models by name. The engines share one
// model cache holding every model and one host KV tier, which the baselines
// never swap to but the engine requires. Each reserves a weights region for
// the largest shard plus 1/16, and gives the rest of 90% of VRAM to KV.
func enginePool(se *sim.Engine, prefix string, n int, prof *latency.Profile, tp int,
	models []*model.Model, opts engine.Options) ([]*engine.Engine, map[string]*model.Model) {
	byName := map[string]*model.Model{}
	modelCache := memory.NewModelCache(1 << 40)
	cpuKV := kvcache.NewCache("cpu-kv", 640<<30, 64<<20, 16)
	var maxShard int64
	for _, m := range models {
		byName[m.Name] = m
		_ = modelCache.Insert(m.Name, m.WeightBytes())
		maxShard = max(maxShard, m.ShardWeightBytes(tp))
	}
	usable := int64(float64(prof.VRAMBytes) * 0.9)
	weights := maxShard + maxShard/16
	engines := make([]*engine.Engine, n)
	for i := range engines {
		engines[i] = engine.New(se, fmt.Sprintf("%s%d", prefix, i), engine.Config{
			Prof:               prof,
			TP:                 tp,
			Opts:               opts,
			WeightsRegionBytes: weights,
			KVRegionBytes:      usable - weights,
			ModelCache:         modelCache,
			CPUKV:              cpuKV,
		}, nil)
		engines[i].WarmBoot()
	}
	return engines, byName
}
