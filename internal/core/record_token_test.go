package core

import (
	"testing"
	"time"

	"aegaeon/internal/engine"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// recordTokenFixture returns a system with the token log off and a request
// for 512 output tokens on its one model.
func recordTokenFixture() (*System, *Request) {
	m := model.MarketMix(1)[0]
	sys := NewSystem(sim.NewEngine(1), testConfig([]*model.Model{m}, engine.AllOptimizations(), 1, 1))
	id := sys.models[m.Name]
	r := newRequest(workload.Request{ID: "r", Model: m.Name, InputTokens: 128, OutputTokens: 512},
		sys.ids.Model(id), id)
	return sys, r
}

// streamTokens restarts r's judgement and records all of its tokens, 50 ms
// apart from one second in.
func streamTokens(sys *System, r *Request) {
	r.judged, r.firstToken, r.lastToken = slo.Stream{}, 0, 0
	at := sim.Time(time.Second)
	for range r.OutputTokens {
		r.recordToken(sys, at)
		at += 50 * time.Millisecond
	}
}

// BenchmarkRecordToken: one warmed request takes its OutputTokens tokens
// with the token log off.
func BenchmarkRecordToken(b *testing.B) {
	sys, r := recordTokenFixture()
	streamTokens(sys, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamTokens(sys, r)
	}
}

// TestRecordTokenAllocatesNothing: with the token log off a request judges
// each token as it lands and keeps no per-token state, so its whole output
// allocates nothing.
func TestRecordTokenAllocatesNothing(t *testing.T) {
	sys, r := recordTokenFixture()
	if n := testing.AllocsPerRun(20, func() { streamTokens(sys, r) }); n != 0 {
		t.Errorf("recording %d tokens allocated %v times, want 0", r.OutputTokens, n)
	}
	if r.Generated() != r.OutputTokens || r.TokenTimes != nil {
		t.Errorf("generated %d of %d tokens, logged %d", r.Generated(), r.OutputTokens, len(r.TokenTimes))
	}
}
