package baselines

import (
	"fmt"
	"sort"

	"aegaeon/internal/engine"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/latency"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// SLLMConfig parameterizes a ServerlessLLM-style deployment.
type SLLMConfig struct {
	Prof   *latency.Profile
	TP     int
	GPUs   int // unified instances (no prefill/decode disaggregation)
	Models []*model.Model
	SLO    slo.SLO

	// SJF enables the oracle shortest-job-first queue of ServerlessLLM+.
	SJF bool
}

// kvHeadroom caps batch KV planning at this fraction of the KV region.
const kvHeadroom = 0.9

// SLLM models ServerlessLLM [21]: serverless auto-scaling with fast
// checkpoint loading. We grant it an optimized load path and persistent
// engine components (its own contribution is cold-start speed), but not
// Aegaeon's explicit memory management: per §5.1–5.2, existing systems
// focus on model-loading acceleration and still pay the tensor library's
// garbage-collection pass when reclaiming VRAM between models. More
// fundamentally, its scaling decisions happen only at request granularity:
// an instance switches models only when it has drained, so queued requests
// for other models suffer head-of-line blocking (§3.1).
type SLLM struct {
	eng *sim.Engine
	cfg SLLMConfig

	instances []*sllmInstance
	queue     []*request // global queue of unassigned requests
	requests  []*request
	models    map[string]*model.Model
	tracker   *slo.Tracker
	completed int
	switchLat switchCDF
}

type sllmInstance struct {
	sys *SLLM
	eng *engine.Engine

	current    string // model being served ("" if idle)
	switching  bool
	admitted   []*request // requests assigned, prefilled or not
	running    bool
	kvLimit    int64
	kvPlanned  int64
	modelCache *memory.ModelCache
}

// NewSLLM builds the baseline system.
func NewSLLM(se *sim.Engine, cfg SLLMConfig) *SLLM {
	if cfg.TP < 1 {
		cfg.TP = 1
	}
	if cfg.GPUs < 1 {
		panic("baselines: SLLM needs at least one GPU instance")
	}
	s := &SLLM{
		eng:     se,
		cfg:     cfg,
		models:  map[string]*model.Model{},
		tracker: slo.NewTracker(),
	}
	modelCache := memory.NewModelCache(1 << 40)
	cpuKV := newNodeCPUKV()
	var maxShard int64
	for _, m := range cfg.Models {
		s.models[m.Name] = m
		_ = modelCache.Insert(m.Name, m.WeightBytes())
		if sh := m.ShardWeightBytes(cfg.TP); sh > maxShard {
			maxShard = sh
		}
	}
	usable := int64(float64(cfg.Prof.VRAMBytes) * 0.9)
	weights := maxShard + maxShard/16
	kvRegion := usable - weights
	opts := engine.Options{ComponentReuse: true}
	for i := 0; i < cfg.GPUs; i++ {
		e := engine.New(se, fmt.Sprintf("sllm%d", i), engine.Config{
			Prof:               cfg.Prof,
			TP:                 cfg.TP,
			Opts:               opts,
			WeightsRegionBytes: weights,
			KVRegionBytes:      kvRegion,
			ModelCache:         modelCache,
			CPUKV:              cpuKV,
		}, nil)
		e.WarmBoot()
		s.instances = append(s.instances, &sllmInstance{sys: s, eng: e, modelCache: modelCache})
	}
	return s
}

// Submit schedules the trace as one feed. A trace naming an unknown model
// is rejected whole: nothing is scheduled or recorded.
func (s *SLLM) Submit(trace []workload.Request) error {
	reqs, times, err := newRequests(s.models, trace)
	if err != nil {
		return err
	}
	s.requests = append(s.requests, reqs...)
	s.eng.Feed(times, func(i int) { s.arrive(reqs[i]) })
	return nil
}

func (s *SLLM) arrive(r *request) {
	// Route to an instance already serving (or switching to) the model with
	// KV room — request-level systems do batch same-model requests.
	for _, in := range s.instances {
		if in.current == r.model.Name && in.hasRoom(r) {
			in.admit(r)
			return
		}
	}
	s.queue = append(s.queue, r)
	s.sortQueue()
	s.feedIdleInstances()
}

func (s *SLLM) sortQueue() {
	if !s.cfg.SJF {
		return
	}
	// ServerlessLLM+ oracle SJF: shortest remaining output first.
	sort.SliceStable(s.queue, func(i, j int) bool {
		return s.queue[i].outputTokens < s.queue[j].outputTokens
	})
}

// feedIdleInstances hands the queue head (and its same-model followers) to
// any drained instance. Scaling happens here — only at request boundaries.
func (s *SLLM) feedIdleInstances() {
	for _, in := range s.instances {
		if len(s.queue) == 0 {
			return
		}
		if in.idle() {
			head := s.queue[0]
			s.queue = s.queue[1:]
			in.scaleTo(head)
		}
	}
}

// takeQueued moves queued requests of the model onto the instance while KV
// room remains.
func (s *SLLM) takeQueued(in *sllmInstance, modelName string) {
	kept := s.queue[:0]
	for _, r := range s.queue {
		if r.model.Name == modelName && in.hasRoom(r) {
			in.admit(r)
		} else {
			kept = append(kept, r)
		}
	}
	s.queue = kept
}

func (in *sllmInstance) idle() bool {
	return !in.switching && len(in.admitted) == 0
}

func (in *sllmInstance) hasRoom(r *request) bool {
	return in.kvPlanned+r.projectedTokens() <= in.kvLimit
}

// scaleTo switches the instance to the request's model (the request-level
// auto-scaling action) and admits it plus any queued same-model requests.
func (in *sllmInstance) scaleTo(r *request) {
	in.switching = true
	in.current = r.model.Name
	shape := r.model.ShardKVShape(in.sys.cfg.TP)
	class, err := in.eng.KV().GPUCache.RegisterShape(shape)
	if err != nil {
		panic(err)
	}
	in.kvLimit = int64(float64(in.eng.KV().GPUCache.MaxTokens(class)) * kvHeadroom)
	in.kvPlanned = 0
	in.admit(r)
	start := in.eng.Sim().Now()
	in.eng.SwitchTo(in.eng.Models().Add(r.model), func() {
		in.sys.switchLat.AddDuration(in.eng.Sim().Now() - start)
		in.switching = false
		in.sys.takeQueued(in, in.current)
		in.wake()
	})
}

func (in *sllmInstance) admit(r *request) {
	in.admitted = append(in.admitted, r)
	in.kvPlanned += r.projectedTokens()
	in.wake()
}

func (in *sllmInstance) wake() {
	if in.running || in.switching {
		return
	}
	in.running = true
	in.step()
}

// step is a continuous-batching iteration: prefill one pending request if
// any (prefill-prioritized admission, as in vLLM), else run one decode step
// over all prefilled requests.
func (in *sllmInstance) step() {
	if len(in.admitted) == 0 {
		in.running = false
		in.current = ""
		in.sys.feedIdleInstances()
		return
	}
	// Prefill pending requests first.
	for _, r := range in.admitted {
		if !r.prefilled {
			in.runPrefill(r)
			return
		}
	}
	// Decode step over the whole batch.
	var ctx int64
	batch := make([]*request, 0, len(in.admitted))
	for _, r := range in.admitted {
		r.kvTokens++
		ctx += r.contextTokens()
		batch = append(batch, r)
	}
	in.eng.DecodeStep(ctx, func() {
		now := in.eng.Sim().Now()
		finished := false
		for _, r := range batch {
			r.tokenTimes = append(r.tokenTimes, now)
			if len(r.tokenTimes) >= r.outputTokens {
				r.done = true
				finished = true
				in.sys.completed++
			}
		}
		if finished {
			kept := in.admitted[:0]
			for _, r := range in.admitted {
				if !r.done {
					kept = append(kept, r)
				}
			}
			in.admitted = kept
			// Capacity freed: pull in queued same-model requests.
			in.sys.takeQueued(in, in.current)
		}
		in.step()
	})
}

func (in *sllmInstance) runPrefill(r *request) {
	r.prefilled = true
	r.kvTokens = int64(r.inputTokens + 1)
	in.eng.Prefill(r.inputTokens, func() {
		now := in.eng.Sim().Now()
		r.tokenTimes = append(r.tokenTimes, now)
		if r.outputTokens <= 1 {
			r.done = true
			in.sys.completed++
			kept := in.admitted[:0]
			for _, q := range in.admitted {
				if !q.done {
					kept = append(kept, q)
				}
			}
			in.admitted = kept
		}
		in.step()
	})
}

// Finalize computes attainment.
func (s *SLLM) Finalize(end sim.Time) {
	observeAll(s.tracker, s.cfg.SLO, s.requests, end)
}

// Attainment returns token-level SLO attainment.
func (s *SLLM) Attainment() float64 { return s.tracker.Attainment() }

// Completed returns fully served requests.
func (s *SLLM) Completed() int { return s.completed }

// Tracker exposes the SLO tracker.
func (s *SLLM) Tracker() *slo.Tracker { return s.tracker }

// SwitchLatencyCDF exposes exposed switch latencies.
func (s *SLLM) SwitchLatencyCDF() *switchCDF { return &s.switchLat }

var _ Server = (*SLLM)(nil)

// newNodeCPUKV builds the host KV tier baselines hand to their engines (the
// request-level systems never swap KV, but the engine requires a tier).
func newNodeCPUKV() *kvcache.Cache {
	return kvcache.NewCache("cpu-kv", 640<<30, 64<<20, 16)
}
