package baselines

import (
	"math/rand"
	"testing"
	"time"

	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

func marketTrace(seed int64, models []*model.Model, rps float64, horizon time.Duration) []workload.Request {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return workload.PoissonTrace(rng, names, rps, horizon, workload.ShareGPT())
}

func runServer(t *testing.T, se *sim.Engine, s Server, trace []workload.Request) {
	t.Helper()
	if err := s.Submit(trace); err != nil {
		t.Fatal(err)
	}
	se.Run()
	s.Finalize(se.Now())
}

func TestSLLMSingleModel(t *testing.T) {
	models := model.MarketMix(1)
	trace := marketTrace(1, models, 0.5, 120*time.Second)
	se := sim.NewEngine(1)
	s := NewSLLM(se, SLLMConfig{
		Prof: latency.H800(), GPUs: 2, Models: models, SLO: slo.Default(),
	})
	runServer(t, se, s, trace)
	if s.Completed() != len(trace) {
		t.Fatalf("completed %d/%d", s.Completed(), len(trace))
	}
	if att := s.Attainment(); att < 0.95 {
		t.Fatalf("single-model SLLM attainment = %.3f", att)
	}
}

// §3.1: with many models per GPU, request-level scaling suffers HOL
// blocking — attainment collapses well before Aegaeon's regime.
func TestSLLMHOLBlocking(t *testing.T) {
	models := model.MarketMix(8)
	trace := marketTrace(2, models, 0.1, 240*time.Second)
	se := sim.NewEngine(1)
	s := NewSLLM(se, SLLMConfig{
		Prof: latency.H800(), GPUs: 2, Models: models, SLO: slo.Default(),
	})
	runServer(t, se, s, trace)
	if att := s.Attainment(); att > 0.9 {
		t.Fatalf("SLLM with 4 models/GPU attained %.3f — HOL blocking should bite", att)
	}
	if s.Completed() == 0 {
		t.Fatal("nothing completed")
	}
}

func TestSLLMPlusSJFOrdersQueue(t *testing.T) {
	models := model.MarketMix(6)
	trace := marketTrace(3, models, 0.15, 180*time.Second)
	run := func(sjf bool) float64 {
		se := sim.NewEngine(1)
		s := NewSLLM(se, SLLMConfig{
			Prof: latency.H800(), GPUs: 2, Models: models, SLO: slo.Default(), SJF: sjf,
		})
		runServer(t, se, s, trace)
		return s.Attainment()
	}
	plain := run(false)
	sjf := run(true)
	// §7.2: SJF can help at low rates but is not uniformly better; both
	// must at least produce sane attainments.
	for _, v := range []float64{plain, sjf} {
		if v < 0 || v > 1 {
			t.Fatalf("attainment out of range: plain=%.3f sjf=%.3f", plain, sjf)
		}
	}
}

func TestMuxPlacementLimit(t *testing.T) {
	// §7.2: MuxServe's placement refuses more than two ~14B models per
	// 80 GB GPU; with 16 GPUs it serves at most 32 models.
	models := model.MarketMix(48)
	se := sim.NewEngine(1)
	s := NewMux(se, MuxConfig{
		Prof: latency.H800(), GPUs: 16, Models: models, SLO: slo.Default(),
	})
	if got := s.MaxModelsPerGPU(); got > 3 {
		t.Fatalf("MuxServe placed %d models on one GPU; memory should forbid it", got)
	}
	if got := s.PlacedModels(); got > 34 {
		t.Fatalf("MuxServe placed %d of 48 models; paper caps at ~32", got)
	}
	if got := s.PlacedModels(); got < 16 {
		t.Fatalf("MuxServe placed only %d models", got)
	}
}

func TestMuxRejectedRequestsViolate(t *testing.T) {
	models := model.MarketMix(8)
	se := sim.NewEngine(1)
	s := NewMux(se, MuxConfig{
		Prof: latency.H800(), GPUs: 1, Models: models, SLO: slo.Default(),
	})
	trace := marketTrace(4, models, 0.1, 120*time.Second)
	runServer(t, se, s, trace)
	if s.Rejected() == 0 {
		t.Fatal("no rejections despite 8 models on 1 GPU")
	}
	if att := s.Attainment(); att > 0.8 {
		t.Fatalf("attainment %.3f too high given %d rejected requests", att, s.Rejected())
	}
}

func TestMuxServesPlacedModelsWell(t *testing.T) {
	models := model.MarketMix(2) // fits on one GPU? 2 x ~15 GB -> yes
	se := sim.NewEngine(1)
	s := NewMux(se, MuxConfig{
		Prof: latency.H800(), GPUs: 1, Models: models, SLO: slo.Default(),
	})
	if s.PlacedModels() != 2 {
		t.Fatalf("placed %d of 2 small models", s.PlacedModels())
	}
	trace := marketTrace(5, models, 0.1, 120*time.Second)
	runServer(t, se, s, trace)
	if s.Completed() != len(trace) {
		t.Fatalf("completed %d/%d", s.Completed(), len(trace))
	}
	// No switching cost at all: multiplexing is strong at low colocation.
	if att := s.Attainment(); att < 0.9 {
		t.Fatalf("Mux attainment with 2 placed models = %.3f", att)
	}
}

func TestUnifiedModesServe(t *testing.T) {
	models := model.MarketMix(3)
	trace := marketTrace(6, models, 0.1, 120*time.Second)
	for _, mode := range []UnifiedMode{PrefillFirst, DecodeFirst} {
		se := sim.NewEngine(1)
		s := NewUnified(se, UnifiedConfig{
			Prof: latency.H800(), GPUs: 2, Models: models, SLO: slo.Default(), Mode: mode,
		})
		runServer(t, se, s, trace)
		if s.Completed() != len(trace) {
			t.Fatalf("%v completed %d/%d", mode, s.Completed(), len(trace))
		}
		if att := s.Attainment(); att <= 0 || att > 1 {
			t.Fatalf("%v attainment = %.3f", mode, att)
		}
	}
}

// Fig. 6(b): decoding-first scheduling compromises TTFT when inputs are
// long — its mean TTFT must exceed prefill-first's under an ix2-style load.
func TestDecodeFirstHurtsTTFT(t *testing.T) {
	models := model.MarketMix(3)
	rng := rand.New(rand.NewSource(7))
	names := []string{models[0].Name, models[1].Name, models[2].Name}
	trace := workload.PoissonTrace(rng, names, 0.15, 180*time.Second, workload.ShareGPTIx2())
	meanTTFT := func(mode UnifiedMode) time.Duration {
		se := sim.NewEngine(1)
		s := NewUnified(se, UnifiedConfig{
			Prof: latency.H800(), GPUs: 2, Models: models, SLO: slo.Default(), Mode: mode,
		})
		runServer(t, se, s, trace)
		return s.Tracker().MeanTTFT()
	}
	pf := meanTTFT(PrefillFirst)
	df := meanTTFT(DecodeFirst)
	if df <= pf {
		t.Fatalf("decode-first TTFT %v not worse than prefill-first %v", df, pf)
	}
}

func TestBaselineDeterminism(t *testing.T) {
	models := model.MarketMix(4)
	trace := marketTrace(8, models, 0.1, 120*time.Second)
	run := func() float64 {
		se := sim.NewEngine(1)
		s := NewSLLM(se, SLLMConfig{
			Prof: latency.H800(), GPUs: 2, Models: models, SLO: slo.Default(),
		})
		runServer(t, se, s, trace)
		return s.Attainment()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic baseline: %.6f vs %.6f", a, b)
	}
}

// A trace naming an unknown model is rejected whole by every baseline: the
// good request before it is neither queued nor recorded.
func TestSubmitUnknownModelBaselines(t *testing.T) {
	models := model.MarketMix(1)
	trace := []workload.Request{
		{ID: "good", Model: models[0].Name, InputTokens: 16, OutputTokens: 4},
		{ID: "bad", Model: "ghost", InputTokens: 16, OutputTokens: 4},
	}
	se := sim.NewEngine(1)
	sllm := NewSLLM(se, SLLMConfig{Prof: latency.H800(), GPUs: 1, Models: models, SLO: slo.Default()})
	mux := NewMux(se, MuxConfig{Prof: latency.H800(), GPUs: 1, Models: models, SLO: slo.Default()})
	unified := NewUnified(se, UnifiedConfig{Prof: latency.H800(), GPUs: 1, Models: models, SLO: slo.Default()})
	for _, c := range []struct {
		name     string
		s        Server
		recorded func() int
	}{
		{"SLLM", sllm, func() int { return len(sllm.requests) }},
		{"Mux", mux, func() int { return len(mux.requests) }},
		{"Unified", unified, func() int { return len(unified.requests) }},
	} {
		pending := se.Pending()
		if err := c.s.Submit(trace); err == nil {
			t.Errorf("%s accepted unknown model", c.name)
		}
		if se.Pending() != pending || c.recorded() != 0 {
			t.Errorf("%s: rejected Submit queued %d events and recorded %d requests",
				c.name, se.Pending()-pending, c.recorded())
		}
	}
}

// §7.2: ServerlessLLM+ (SJF) helps at low rates by dodging HOL blocking
// behind long jobs, but extra scaling churn means it is not uniformly
// better; at minimum it must differ measurably from plain FCFS under
// contention, and both must collapse at saturation.
func TestSJFChangesBehaviorUnderContention(t *testing.T) {
	models := model.MarketMix(10)
	trace := marketTrace(21, models, 0.2, 240*time.Second)
	run := func(sjf bool) (float64, int) {
		se := sim.NewEngine(1)
		s := NewSLLM(se, SLLMConfig{
			Prof: latency.H800(), GPUs: 2, Models: models, SLO: slo.Default(), SJF: sjf,
		})
		runServer(t, se, s, trace)
		return s.Attainment(), s.Completed()
	}
	plainAtt, plainDone := run(false)
	sjfAtt, sjfDone := run(true)
	if plainDone != len(trace) || sjfDone != len(trace) {
		t.Fatalf("incomplete: plain %d, sjf %d of %d", plainDone, sjfDone, len(trace))
	}
	if plainAtt == sjfAtt {
		t.Fatalf("SJF indistinguishable from FCFS under contention (both %.4f)", plainAtt)
	}
}

// MuxServe never switches models: its placed models' weights are resident
// for the lifetime of the deployment, so it pays zero scaling cost but
// serves only what fits.
func TestMuxTradeoffShape(t *testing.T) {
	few := model.MarketMix(2)
	many := model.MarketMix(20)
	run := func(models []*model.Model) (float64, int) {
		se := sim.NewEngine(1)
		s := NewMux(se, MuxConfig{Prof: latency.H800(), GPUs: 1, Models: models, SLO: slo.Default()})
		trace := marketTrace(22, models, 0.1, 120*time.Second)
		runServer(t, se, s, trace)
		return s.Attainment(), s.PlacedModels()
	}
	fewAtt, fewPlaced := run(few)
	manyAtt, manyPlaced := run(many)
	if fewPlaced != 2 {
		t.Fatalf("placed %d of 2", fewPlaced)
	}
	if manyPlaced > 3 {
		t.Fatalf("placed %d of 20 on one GPU", manyPlaced)
	}
	if fewAtt <= manyAtt {
		t.Fatalf("Mux attainment did not degrade with unplaceable models: %.3f vs %.3f",
			fewAtt, manyAtt)
	}
}

// A finished request returns its KV to ServerlessLLM's budget at once: with
// room for two of three same-model requests, the third is admitted when the
// shorter of the first two finishes, not when the instance drains.
func TestSLLMRefillsFreedKV(t *testing.T) {
	m := model.MarketMix(1)[0]
	se := sim.NewEngine(1)
	s := NewSLLM(se, SLLMConfig{Prof: tightProfile(m), GPUs: 1, Models: []*model.Model{m}, SLO: slo.Default()})
	gpuKV := s.instances[0].eng.KV().GPUCache
	class, err := gpuKV.RegisterShape(m.ShardKVShape(1))
	if err != nil {
		t.Fatal(err)
	}
	budget := int(float64(gpuKV.MaxTokens(class)) * kvHeadroom)
	// Each request takes two fifths of the budget.
	trace := []workload.Request{
		{ID: "short", Model: m.Name, InputTokens: budget*2/5 - 32, OutputTokens: 32},
		{ID: "long", Model: m.Name, InputTokens: budget*2/5 - 256, OutputTokens: 256},
		{ID: "third", Model: m.Name, InputTokens: budget*2/5 - 16, OutputTokens: 16},
	}
	runServer(t, se, s, trace)
	if s.Completed() != 3 {
		t.Fatalf("completed %d of 3", s.Completed())
	}
	long, third := s.requests[1].tokenTimes, s.requests[2].tokenTimes
	if third[0] >= long[len(long)-1] {
		t.Fatalf("third request's first token at %v, after the long request finished at %v",
			third[0], long[len(long)-1])
	}
}
