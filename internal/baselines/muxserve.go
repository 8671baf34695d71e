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
	base
	cfg MuxConfig

	gpus      []*muxGPU
	placement map[string]*muxModel // model name -> placed runtime (nil if rejected)
}

type muxGPU struct {
	sys    *Mux
	models []*muxModel
	active int // colocated models currently executing (spatial contention)
}

type muxModel struct {
	gpu   *muxGPU
	m     *model.Model
	cost  *latency.CostModel
	loop  batchLoop
	queue []*request
}

// NewMux builds the deployment and runs placement.
func NewMux(se *sim.Engine, cfg MuxConfig) *Mux {
	if cfg.TP < 1 {
		cfg.TP = 1
	}
	if cfg.GPUs < 1 {
		panic("baselines: Mux needs at least one GPU")
	}
	s := &Mux{base: newBase(se, cfg.SLO), cfg: cfg, placement: map[string]*muxModel{}}
	for i := 0; i < cfg.GPUs; i++ {
		s.gpus = append(s.gpus, &muxGPU{sys: s})
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
				mm.loop = batchLoop{host: mm, book: &s.base, kvLimit: minKVBytesPerModel / shape.BytesPerToken()}
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
			mm.loop.kvLimit += extra / shape.BytesPerToken()
		}
	}
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
		r := &request{arrival: wr.Arrival, inputTokens: wr.InputTokens, outputTokens: wr.OutputTokens}
		s.requests = append(s.requests, r)
		if mm == nil {
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
	mm.refill()
	mm.loop.start()
}

// refill admits every queued request, in queue order, that fits the KV
// budget beside those already admitted.
func (mm *muxModel) refill() {
	kept := mm.queue[:0]
	for _, r := range mm.queue {
		if mm.loop.fits(r) {
			mm.loop.admit(r)
		} else {
			kept = append(kept, r)
		}
	}
	mm.queue = kept
}

// busy counts the model among its GPU's executing models while its loop
// runs.
func (mm *muxModel) busy(on bool) {
	if on {
		mm.gpu.active++
	} else {
		mm.gpu.active--
	}
}

// contention returns the spatial-sharing slowdown: with k colocated models
// executing concurrently under MPS, each receives roughly 1/k of the SMs.
func (g *muxGPU) contention() float64 {
	if g.active < 1 {
		return 1
	}
	return float64(g.active)
}

// prefill and decode run one step of this model's virtual engine, slowed by
// the GPU's contention when the step starts.
func (mm *muxModel) prefill(r *request, done func()) {
	mm.gpu.sys.eng.After(time.Duration(float64(mm.cost.Prefill(r.inputTokens))*mm.gpu.contention()), done)
}

func (mm *muxModel) decode(ctx int64, done func()) {
	mm.gpu.sys.eng.After(time.Duration(float64(mm.cost.DecodeStep(ctx))*mm.gpu.contention()), done)
}

var _ Server = (*Mux)(nil)
