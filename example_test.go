package aegaeon_test

import (
	"fmt"
	"time"

	"aegaeon"
)

// The minimal serving loop: build a pool, synthesize market traffic, serve
// it in virtual time.
func Example() {
	sys, err := aegaeon.New(aegaeon.Config{
		PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 6, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	trace := sys.GenerateTrace(aegaeon.TraceSpec{
		RatePerModel: 0.1, Horizon: 2 * time.Minute,
	})
	rep, err := sys.Serve(trace)
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed %d/%d, attainment above 90%%: %v\n",
		rep.Completed, rep.Requests, rep.Attainment > 0.9)
	// Output: completed 73/73, attainment above 90%: true
}

// Comparing against a baseline on identical traffic.
func Example_baseline() {
	sys, _ := aegaeon.New(aegaeon.Config{
		PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 10, Seed: 2,
	})
	trace := sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: 2 * time.Minute})
	mux, _ := sys.ServeBaseline(aegaeon.MuxServe, trace)
	aeg, _ := sys.Serve(trace)
	fmt.Printf("Aegaeon beats MuxServe on 10 models / 3 GPUs: %v\n",
		aeg.Attainment > mux.Attainment)
	// Output: Aegaeon beats MuxServe on 10 models / 3 GPUs: true
}

// Surviving an instance crash mid-run.
func Example_failover() {
	sys, _ := aegaeon.New(aegaeon.Config{
		PrefillGPUs: 1, DecodeGPUs: 3, NumModels: 6, Seed: 3,
		Faults: "crash@60s:decode1",
	})
	trace := sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: 2 * time.Minute})
	rep, _ := sys.Serve(trace)
	fmt.Printf("all requests completed despite the crash: %v\n",
		rep.Completed == rep.Requests)
	// Output: all requests completed despite the crash: true
}
