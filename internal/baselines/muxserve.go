package baselines

import (
	"fmt"
	"sort"
	"time"

	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// MuxConfig parameterizes a MuxServe-style deployment.
type MuxConfig struct {
	Prof   *latency.Profile
	TP     int
	GPUs   int
	Models []*model.Model
	SLO    slo.SLO
}

// minKVBytesPerModel is the KV budget the placement optimizer reserves for
// each colocated model (MuxServe refuses placements that starve a model's
// KV cache and hence its throughput). 12 GiB reproduces the paper's
// observation that at most two 6–14B FP16 models share an 80 GB GPU (§2.3,
// §7.2).
const minKVBytesPerModel int64 = 12 << 30

// Mux models MuxServe [20]: models are statically placed onto GPUs
// (weights permanently resident) and colocated models share each GPU
// spatially. There is no auto-scaling cost, but placement is hard-limited
// by VRAM — with ~14B FP16 models at most two fit per 80 GB GPU (§2.3), and
// models that cannot be placed are rejected outright, exactly as the
// paper's MuxServe placement optimizer refuses them (§7.2).
type Mux struct {
	eng *sim.Engine
	cfg MuxConfig

	gpus      []*muxGPU
	placement map[string]*muxModel // model name -> placed runtime (nil if rejected)
	requests  []*request
	tracker   *slo.Tracker
	completed int
	rejected  int
}

type muxGPU struct {
	sys    *Mux
	id     int
	models []*muxModel
	active int // colocated models currently executing (spatial contention)
}

type muxModel struct {
	gpu      *muxGPU
	m        *model.Model
	cost     *latency.CostModel
	kvLimit  int64 // tokens
	admitted []*request
	queue    []*request
	running  bool
}

// NewMux builds the deployment and runs placement.
func NewMux(se *sim.Engine, cfg MuxConfig) *Mux {
	if cfg.TP < 1 {
		cfg.TP = 1
	}
	if cfg.GPUs < 1 {
		panic("baselines: Mux needs at least one GPU")
	}
	s := &Mux{eng: se, cfg: cfg, placement: map[string]*muxModel{}, tracker: slo.NewTracker()}
	for i := 0; i < cfg.GPUs; i++ {
		s.gpus = append(s.gpus, &muxGPU{sys: s, id: i})
	}
	s.place()
	return s
}

// place packs models onto GPUs first-fit-decreasing by weight size, subject
// to VRAM: Σ resident weights + MinKV per model ≤ usable VRAM.
func (s *Mux) place() {
	models := append([]*model.Model(nil), s.cfg.Models...)
	sort.SliceStable(models, func(i, j int) bool {
		return models[i].ShardWeightBytes(s.cfg.TP) > models[j].ShardWeightBytes(s.cfg.TP)
	})
	usable := int64(float64(s.cfg.Prof.VRAMBytes) * 0.9)
	used := make([]int64, len(s.gpus))
	for _, m := range models {
		shard := m.ShardWeightBytes(s.cfg.TP)
		placed := false
		for gi, g := range s.gpus {
			need := shard + minKVBytesPerModel
			if used[gi]+need <= usable {
				used[gi] += need
				mm := &muxModel{
					gpu:  g,
					m:    m,
					cost: latency.NewCostModel(s.cfg.Prof, m, s.cfg.TP),
				}
				shape := m.ShardKVShape(s.cfg.TP)
				mm.kvLimit = minKVBytesPerModel / shape.BytesPerToken()
				g.models = append(g.models, mm)
				s.placement[m.Name] = mm
				placed = true
				break
			}
		}
		if !placed {
			s.placement[m.Name] = nil // rejected by the placement optimizer
		}
	}
	// Distribute leftover VRAM as extra KV, proportionally per GPU.
	for gi, g := range s.gpus {
		if len(g.models) == 0 {
			continue
		}
		extra := (usable - used[gi]) / int64(len(g.models))
		if extra <= 0 {
			continue
		}
		for _, mm := range g.models {
			shape := mm.m.ShardKVShape(s.cfg.TP)
			mm.kvLimit += extra / shape.BytesPerToken()
		}
	}
}

// PlacedModels returns how many models the placement accepted.
func (s *Mux) PlacedModels() int {
	n := 0
	for _, mm := range s.placement {
		if mm != nil {
			n++
		}
	}
	return n
}

// MaxModelsPerGPU returns the largest colocation degree achieved.
func (s *Mux) MaxModelsPerGPU() int {
	max := 0
	for _, g := range s.gpus {
		if len(g.models) > max {
			max = len(g.models)
		}
	}
	return max
}

// Submit schedules the placed models' requests as one feed. Requests for
// unplaced models are rejected at arrival (they count as fully violated).
// A trace naming an unknown model is rejected whole: nothing is scheduled
// or recorded.
func (s *Mux) Submit(trace []workload.Request) error {
	for _, wr := range trace {
		if _, ok := s.placement[wr.Model]; !ok {
			return fmt.Errorf("baselines: unknown model %q", wr.Model)
		}
	}
	type arrival struct {
		mm *muxModel
		r  *request
	}
	var placed []arrival
	var times []sim.Time
	for _, wr := range trace {
		mm := s.placement[wr.Model]
		r := &request{
			id: wr.ID, model: nil, arrival: wr.Arrival,
			inputTokens: wr.InputTokens, outputTokens: wr.OutputTokens,
		}
		s.requests = append(s.requests, r)
		if mm == nil {
			s.rejected++
			continue // never generates tokens; Finalize marks it violated
		}
		r.model = mm.m
		placed = append(placed, arrival{mm, r})
		times = append(times, wr.Arrival)
	}
	s.eng.Feed(times, func(i int) { placed[i].mm.arrive(placed[i].r) })
	return nil
}

func (mm *muxModel) arrive(r *request) {
	mm.queue = append(mm.queue, r)
	mm.admitFromQueue()
	mm.wake()
}

func (mm *muxModel) admitFromQueue() {
	var live int64
	for _, a := range mm.admitted {
		live += a.projectedTokens()
	}
	kept := mm.queue[:0]
	for _, r := range mm.queue {
		if live+r.projectedTokens() <= mm.kvLimit {
			live += r.projectedTokens()
			mm.admitted = append(mm.admitted, r)
		} else {
			kept = append(kept, r)
		}
	}
	mm.queue = kept
}

func (mm *muxModel) wake() {
	if mm.running || len(mm.admitted) == 0 {
		return
	}
	mm.running = true
	mm.gpu.active++
	mm.step()
}

// contention returns the spatial-sharing slowdown: with k colocated models
// executing concurrently under MPS, each receives roughly 1/k of the SMs.
func (g *muxGPU) contention() float64 {
	if g.active < 1 {
		return 1
	}
	return float64(g.active)
}

// step runs one continuous-batching iteration for this model's virtual
// engine, slowed by the GPU's current contention.
func (mm *muxModel) step() {
	if len(mm.admitted) == 0 {
		mm.running = false
		mm.gpu.active--
		return
	}
	g := mm.gpu
	for _, r := range mm.admitted {
		if !r.prefilled {
			r.prefilled = true
			dur := time.Duration(float64(mm.cost.Prefill(r.inputTokens)) * g.contention())
			g.sys.eng.After(dur, func() {
				r.tokenTimes = append(r.tokenTimes, g.sys.eng.Now())
				if r.outputTokens <= 1 {
					mm.finish(r)
				}
				mm.step()
			})
			return
		}
	}
	var ctx int64
	batch := make([]*request, 0, len(mm.admitted))
	for _, r := range mm.admitted {
		ctx += r.contextTokens()
		batch = append(batch, r)
	}
	dur := time.Duration(float64(mm.cost.DecodeStep(ctx)) * g.contention())
	g.sys.eng.After(dur, func() {
		now := g.sys.eng.Now()
		for _, r := range batch {
			r.tokenTimes = append(r.tokenTimes, now)
			if len(r.tokenTimes) >= r.outputTokens {
				mm.finish(r)
			}
		}
		mm.step()
	})
}

func (mm *muxModel) finish(r *request) {
	r.done = true
	mm.gpu.sys.completed++
	kept := mm.admitted[:0]
	for _, a := range mm.admitted {
		if !a.done {
			kept = append(kept, a)
		}
	}
	mm.admitted = kept
	mm.admitFromQueue()
}

// Finalize computes attainment (rejected requests count as violated).
func (s *Mux) Finalize(end sim.Time) {
	observeAll(s.tracker, s.cfg.SLO, s.requests, end)
}

// Attainment returns token-level SLO attainment.
func (s *Mux) Attainment() float64 { return s.tracker.Attainment() }

// Completed returns fully served requests.
func (s *Mux) Completed() int { return s.completed }

// Rejected returns requests refused because their model was not placed.
func (s *Mux) Rejected() int { return s.rejected }

// Tracker exposes the SLO tracker.
func (s *Mux) Tracker() *slo.Tracker { return s.tracker }

var _ Server = (*Mux)(nil)
