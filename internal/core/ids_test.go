package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// observedConfig is testConfig with all four observers on.
func observedConfig(se *sim.Engine, models []*model.Model) Config {
	cfg := testConfig(models, engine.AllOptimizations(), 2, 2)
	cfg.Obs = obs.New(obs.Options{})
	cfg.SLOMon = slomon.New(slomon.Config{Source: cfg.Obs})
	cfg.Fleet = fleetobs.New(se)
	cfg.Decisions = decision.New(decision.Options{})
	return cfg
}

// observedDigest serves trace on a fresh fully observed system built from
// models and digests everything the run produces: attainment, every
// request's token times, and all four observers' exports.
func observedDigest(t *testing.T, models []*model.Model, trace []workload.Request) string {
	se := sim.NewEngine(1)
	cfg := observedConfig(se, models)
	sys := NewSystem(se, cfg)
	sys.LogTokens()
	if err := sys.Submit(trace); err != nil {
		t.Error(err)
		return ""
	}
	se.Run()
	sys.Finalize(se.Now())
	var b bytes.Buffer
	fmt.Fprintf(&b, "attainment %v completed %d\n", sys.Attainment(), sys.Completed())
	for _, r := range sys.requests {
		fmt.Fprintf(&b, "%s %v\n", r.ID, r.TokenTimes)
	}
	enc := json.NewEncoder(&b)
	if err := enc.Encode(cfg.Fleet.Snapshot(se.Now())); err != nil {
		t.Error(err)
	}
	if err := enc.Encode(cfg.SLOMon.Snapshot(se.Now())); err != nil {
		t.Error(err)
	}
	if err := cfg.Obs.PerfettoTrace().Write(&b, nil); err != nil {
		t.Error(err)
	}
	if err := cfg.Decisions.WriteJSON(&b); err != nil {
		t.Error(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// TestSharedModelSliceSystemsRunInParallel: two systems built from one model
// slice, in different orders so their registries give the models different
// ids, run in parallel and each produces exactly what it produces alone. No
// id is written into the shared models.
func TestSharedModelSliceSystemsRunInParallel(t *testing.T) {
	models := model.MarketMix(6)
	before := make([]model.Model, len(models))
	var names []string
	for i, m := range models {
		before[i] = *m
		names = append(names, m.Name)
	}
	reversed := slices.Clone(models)
	slices.Reverse(reversed)
	orders := [2][]*model.Model{models, reversed}
	trace := workload.PoissonTrace(rand.New(rand.NewSource(3)), names, 0.1, 90*time.Second, workload.ShareGPT())

	var alone, parallel [2]string
	for i, ms := range orders {
		alone[i] = observedDigest(t, ms, trace)
	}
	var wg sync.WaitGroup
	for i, ms := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel[i] = observedDigest(t, ms, trace)
		}()
	}
	wg.Wait()
	for i := range orders {
		if parallel[i] != alone[i] {
			t.Errorf("order %d: parallel run digests %s, alone %s", i, parallel[i], alone[i])
		}
	}
	for i, m := range models {
		if *m != before[i] {
			t.Errorf("model %s changed while shared: %+v, was %+v", m.Name, *m, before[i])
		}
	}
}

// observedStep returns one decode step of eight requests on a system with
// every observer on, as settleStep takes it: stampStep's token batch, token
// feed and flush, then the step's KV sample. Each call is a millisecond
// after the last, and every token meets its deadline.
func observedStep() (step func(), sys *System, now *sim.Time) {
	models := model.MarketMix(1)
	se := sim.NewEngine(1)
	sys = NewSystem(se, observedConfig(se, models))
	d := sys.decodes[0]
	id, _ := sys.ModelID(models[0].Name)
	d.turn = &dbatch{mid: id}
	d.runReqs = make([]*Request, 8)
	for i := range d.runReqs {
		r := &Request{ID: fmt.Sprintf("r%d", i), Model: models[0], mid: id, OutputTokens: math.MaxInt32}
		r.tl = sys.obs.RequestArrived(r.ID, r.Model.Name, 0)
		d.runReqs[i] = r
	}
	now = new(sim.Time)
	return func() {
		*now += time.Millisecond
		d.stampStep(*now-time.Millisecond, *now)
		d.eng.KV().NoteKV()
	}, sys, now
}

// TestDecodeStepObserverFeedAllocs: with every observer on, one warmed
// decode step's feed — the collector's token batch, the fleet ledger's
// token credit and KV sample, and the monitor's judgements of tokens that
// meet their deadlines — allocates nothing.
func TestDecodeStepObserverFeedAllocs(t *testing.T) {
	step, sys, now := observedStep()
	// Warm past the token-stamp cap and the TBT reservoir's size; the
	// measured steps cross a window-bucket rotation.
	for i := 0; i < 2950; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("a decode step's observer feed allocates %.1f times, want 0", n)
	}
	if snap := sys.mon.Snapshot(*now); snap.Fleet.TokensMissed != 0 || snap.Fleet.TokensMet == 0 {
		t.Fatalf("%d tokens met, %d missed; the gate covers met tokens only", snap.Fleet.TokensMet, snap.Fleet.TokensMissed)
	}
}

// BenchmarkSettleStepObserved is one settled decode step of eight requests
// with all four observers on, warmed as TestDecodeStepObserverFeedAllocs
// warms it.
func BenchmarkSettleStepObserved(b *testing.B) {
	step, _, _ := observedStep()
	for i := 0; i < 2950; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
