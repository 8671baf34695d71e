package aegaeon_test

import (
	"testing"
	"time"

	"aegaeon"
)

// TestEndToEndPipeline exercises the full public workflow: generate a
// trace, serve it on Aegaeon and two baselines, and cross-check the
// reports.
func TestEndToEndPipeline(t *testing.T) {
	build := func() *aegaeon.System {
		sys, err := aegaeon.New(aegaeon.Config{
			PrefillGPUs: 2, DecodeGPUs: 3, NumModels: 12, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	trace := build().GenerateTrace(aegaeon.TraceSpec{
		RatePerModel: 0.1, Horizon: 3 * time.Minute, Dataset: aegaeon.ShareGPTOx2(),
	})

	aeg, err := build().Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	sllm, err := build().ServeBaseline(aegaeon.ServerlessLLM, trace)
	if err != nil {
		t.Fatal(err)
	}
	mux, err := build().ServeBaseline(aegaeon.MuxServe, trace)
	if err != nil {
		t.Fatal(err)
	}
	if aeg.Completed != aeg.Requests {
		t.Fatalf("aegaeon completed %d/%d", aeg.Completed, aeg.Requests)
	}
	// 12 models on 5 GPUs with 2x outputs: Aegaeon must lead both baselines
	// (the paper's headline direction, on its hardest dataset).
	if aeg.Attainment <= sllm.Attainment {
		t.Errorf("Aegaeon %.3f <= ServerlessLLM %.3f", aeg.Attainment, sllm.Attainment)
	}
	if aeg.Attainment <= mux.Attainment {
		t.Errorf("Aegaeon %.3f <= MuxServe %.3f", aeg.Attainment, mux.Attainment)
	}
	// Serving the same trace twice is deterministic.
	again, err := build().Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if again.Attainment != aeg.Attainment || again.Completed != aeg.Completed {
		t.Fatal("serving the same trace twice is not deterministic")
	}
}

// TestFailoverUnderLoadPublicAPI drives the crash-recovery path from the
// public API while the system is saturated.
func TestFailoverUnderLoadPublicAPI(t *testing.T) {
	sys, err := aegaeon.New(aegaeon.Config{
		PrefillGPUs: 2, DecodeGPUs: 3, NumModels: 9, Seed: 6,
		Faults: "crash@60s:decode0,crash@90s:prefill0",
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.15, Horizon: 3 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Requests {
		t.Fatalf("completed %d/%d after double failure", rep.Completed, rep.Requests)
	}
}
