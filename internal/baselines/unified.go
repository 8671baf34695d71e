package baselines

import (
	"time"

	"aegaeon/internal/engine"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// UnifiedMode selects the priority heuristic of a unified (non-
// disaggregated) token-level scheduler (Fig. 6).
type UnifiedMode int

const (
	// PrefillFirst always serves queued prefill jobs before decoding —
	// harming TBT under arrival bursts (Fig. 6a).
	PrefillFirst UnifiedMode = iota
	// DecodeFirst always advances decoding batches before prefills —
	// harming TTFT under long inputs (Fig. 6b).
	DecodeFirst
)

func (m UnifiedMode) String() string {
	if m == PrefillFirst {
		return "prefill-first"
	}
	return "decoding-first"
}

// UnifiedConfig parameterizes the unified scheduler.
type UnifiedConfig struct {
	Prof   *latency.Profile
	TP     int
	GPUs   int
	Models []*model.Model
	SLO    slo.SLO
	Mode   UnifiedMode
}

// decodeSlice is how long a decode batch runs before the unified scheduler
// re-evaluates priorities (token-level granularity).
const decodeSlice = 500 * time.Millisecond

// Unified is the token-level but non-disaggregated scheduler used in §4.1
// to motivate prefill/decoding disaggregation: every GPU serves both
// phases, with a fixed priority between them. It shares Aegaeon's optimized
// auto-scaling (so the comparison isolates the scheduling policy) but not
// its KV-transfer machinery — switches charge the Eq. 4 weight load only,
// which favors the unified schedulers if anything.
type Unified struct {
	base
	cfg UnifiedConfig

	instances []*uInstance
	models    map[string]*model.Model
}

type uInstance struct {
	sys *Unified
	eng *engine.Engine

	prefillQ []*request
	batches  map[string][]*request // decoding sets per model
	rotation []string              // round-robin order of models with decode work
	running  bool
}

// NewUnified builds the system.
func NewUnified(se *sim.Engine, cfg UnifiedConfig) *Unified {
	if cfg.TP < 1 {
		cfg.TP = 1
	}
	if cfg.GPUs < 1 {
		panic("baselines: Unified needs at least one GPU")
	}
	s := &Unified{base: newBase(se, cfg.SLO), cfg: cfg}
	engines, models := enginePool(se, "unified", cfg.GPUs, cfg.Prof, cfg.TP, cfg.Models,
		engine.Options{ComponentReuse: true, ExplicitMemory: true})
	s.models = models
	for _, e := range engines {
		s.instances = append(s.instances, &uInstance{sys: s, eng: e, batches: map[string][]*request{}})
	}
	return s
}

// Submit schedules the trace as one feed. A trace naming an unknown model
// is rejected whole: nothing is scheduled or recorded.
func (s *Unified) Submit(trace []workload.Request) error {
	return s.submit(s.models, trace, s.dispatch)
}

func (s *Unified) dispatch(r *request) {
	best := s.instances[0]
	bestLoad := best.load()
	for _, in := range s.instances[1:] {
		if l := in.load(); l < bestLoad {
			best, bestLoad = in, l
		}
	}
	best.prefillQ = append(best.prefillQ, r)
	best.wake()
}

func (in *uInstance) load() int {
	n := len(in.prefillQ)
	for _, b := range in.batches {
		n += len(b)
	}
	return n
}

func (in *uInstance) wake() {
	if in.running {
		return
	}
	in.running = true
	in.step()
}

// step picks the next token-generation work per the priority mode.
func (in *uInstance) step() {
	hasPrefill := len(in.prefillQ) > 0
	hasDecode := in.nextDecodeModel() != ""
	switch {
	case !hasPrefill && !hasDecode:
		in.running = false
	case in.sys.cfg.Mode == PrefillFirst && hasPrefill, !hasDecode:
		in.runPrefill()
	default:
		in.runDecodeSlice()
	}
}

func (in *uInstance) nextDecodeModel() string {
	for len(in.rotation) > 0 {
		m := in.rotation[0]
		if len(in.batches[m]) > 0 {
			return m
		}
		in.rotation = in.rotation[1:]
	}
	return ""
}

func (in *uInstance) runPrefill() {
	r := in.prefillQ[0]
	in.prefillQ = in.prefillQ[1:]
	exec := func() {
		in.eng.Prefill(r.inputTokens, func() {
			r.tokenTimes = append(r.tokenTimes, in.sys.eng.Now())
			if r.outputTokens <= 1 {
				r.done = true
				in.sys.completed++
			} else {
				if len(in.batches[r.model.Name]) == 0 {
					in.rotation = append(in.rotation, r.model.Name)
				}
				in.batches[r.model.Name] = append(in.batches[r.model.Name], r)
			}
			in.step()
		})
	}
	if cur := in.eng.Current(); cur == nil || cur.Name != r.model.Name {
		in.eng.SwitchTo(in.eng.Models().Add(r.model), exec)
		return
	}
	exec()
}

// runDecodeSlice advances the head decode batch for one scheduler slice.
func (in *uInstance) runDecodeSlice() {
	mName := in.nextDecodeModel()
	m := in.sys.models[mName]
	run := func() {
		end := in.sys.eng.Now() + decodeSlice
		in.decodeUntil(mName, end)
	}
	if cur := in.eng.Current(); cur == nil || cur.Name != mName {
		in.eng.SwitchTo(in.eng.Models().Add(m), run)
		return
	}
	run()
}

func (in *uInstance) decodeUntil(mName string, end sim.Time) {
	batch := in.batches[mName]
	if len(batch) == 0 || in.sys.eng.Now() >= end {
		// Rotate the model to the back and re-evaluate priorities.
		if len(in.rotation) > 0 && in.rotation[0] == mName {
			in.rotation = append(in.rotation[1:], mName)
		}
		in.step()
		return
	}
	// In prefill-first mode, a queued prefill preempts mid-slice — the
	// token-level granularity that causes TBT interference under bursts.
	if in.sys.cfg.Mode == PrefillFirst && len(in.prefillQ) > 0 {
		in.step()
		return
	}
	var ctx int64
	for _, r := range batch {
		ctx += r.contextTokens()
	}
	in.eng.DecodeStep(ctx, func() {
		now := in.sys.eng.Now()
		kept := batch[:0]
		for _, r := range batch {
			r.tokenTimes = append(r.tokenTimes, now)
			if len(r.tokenTimes) >= r.outputTokens {
				r.done = true
				in.sys.completed++
			} else {
				kept = append(kept, r)
			}
		}
		in.batches[mName] = kept
		in.decodeUntil(mName, end)
	})
}

var _ Server = (*Unified)(nil)
