package baselines

import (
	"sort"

	"aegaeon/internal/engine"
	"aegaeon/internal/latency"
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
	base
	cfg SLLMConfig

	instances []*sllmInstance
	queue     []*request // global queue of unassigned requests
	models    map[string]*model.Model
}

type sllmInstance struct {
	sys  *SLLM
	eng  *engine.Engine
	loop batchLoop

	current   string // model being served ("" if idle)
	switching bool
}

// NewSLLM builds the baseline system.
func NewSLLM(se *sim.Engine, cfg SLLMConfig) *SLLM {
	if cfg.TP < 1 {
		cfg.TP = 1
	}
	if cfg.GPUs < 1 {
		panic("baselines: SLLM needs at least one GPU instance")
	}
	s := &SLLM{base: newBase(se, cfg.SLO), cfg: cfg}
	engines, models := enginePool(se, "sllm", cfg.GPUs, cfg.Prof, cfg.TP, cfg.Models,
		engine.Options{ComponentReuse: true})
	s.models = models
	for _, e := range engines {
		in := &sllmInstance{sys: s, eng: e}
		in.loop = batchLoop{host: in, book: &s.base}
		s.instances = append(s.instances, in)
	}
	return s
}

// Submit schedules the trace as one feed. A trace naming an unknown model
// is rejected whole: nothing is scheduled or recorded.
func (s *SLLM) Submit(trace []workload.Request) error {
	return s.submit(s.models, trace, s.arrive)
}

func (s *SLLM) arrive(r *request) {
	// Route to an instance already serving (or switching to) the model with
	// KV room — request-level systems do batch same-model requests.
	for _, in := range s.instances {
		if in.current == r.model.Name && in.loop.fits(r) {
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
		if r.model.Name == modelName && in.loop.fits(r) {
			in.admit(r)
		} else {
			kept = append(kept, r)
		}
	}
	s.queue = kept
}

func (in *sllmInstance) idle() bool {
	return !in.switching && len(in.loop.admitted) == 0
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
	in.loop.kvLimit = int64(float64(in.eng.KV().GPUCache.MaxTokens(class)) * kvHeadroom)
	in.admit(r)
	in.eng.SwitchTo(in.eng.Models().Add(r.model), func() {
		in.switching = false
		in.sys.takeQueued(in, in.current)
		in.loop.start()
	})
}

// admit adds r to the batch and runs the loop unless a switch holds it.
func (in *sllmInstance) admit(r *request) {
	in.loop.admit(r)
	if !in.switching {
		in.loop.start()
	}
}

func (in *sllmInstance) prefill(r *request, done func()) { in.eng.Prefill(r.inputTokens, done) }

func (in *sllmInstance) decode(ctx int64, done func()) { in.eng.DecodeStep(ctx, done) }

// refill pulls in the queued same-model requests that fit now that a
// finished request has returned its KV.
func (in *sllmInstance) refill() { in.sys.takeQueued(in, in.current) }

// busy, when the instance drains, frees it for the queue head's model.
func (in *sllmInstance) busy(on bool) {
	if !on {
		in.current = ""
		in.sys.feedIdleInstances()
	}
}

var _ Server = (*SLLM)(nil)
