package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/latency"
	"aegaeon/internal/metrics"
	"aegaeon/internal/model"
	"aegaeon/internal/workload"
)

// Figure18 regenerates the production-deployment utilization study of
// Fig. 18 and §7.5: GPU utilization before (dedicated per-model instances,
// shown for the lowest- and highest-load models) and after (one pooled
// Aegaeon deployment), on an H20 cluster serving the small (TP=1) half of
// the production mix with Zipf-skewed arrival rates (λ from 0.01 to ~1.1,
// averaging ~0.037 — §7.5's reported range).
func Figure18(o Options) Table {
	oo := o
	oo.Prof = latency.H20()
	const nModels = 28
	models, _ := model.DeploymentMix()
	models = models[:nModels] // the TP=1 pool

	// Production rates: Zipf(s=2) over the pool, clipped to [0.01, 1.13].
	weights := workload.ZipfWeights(nModels, 2)
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	totalRate := 0.037 * nModels / (1 - 0.25) // compensate clipping roughly
	rates := make([]float64, nModels)
	for i, w := range weights {
		r := totalRate * w / wsum
		if r < 0.01 {
			r = 0.01
		}
		if r > 1.13 {
			r = 1.13
		}
		rates[i] = r
	}

	rng := rand.New(rand.NewSource(oo.Seed))
	var traces [][]workload.Request
	for i, m := range models {
		traces = append(traces, workload.PoissonTrace(rng, []string{m.Name}, rates[i], oo.Horizon, workload.ShareGPT()))
	}
	merged := workload.Merge(traces...)

	// After: one pooled Aegaeon deployment on 8 GPUs (2 prefill + 6 decode).
	oo.PrefillGPUs, oo.DecodeGPUs = 2, 6
	after, afterTS := runUtilization(oo, models, merged)

	// Before: dedicated 2-GPU deployments for the lowest- and highest-load
	// models (utilization of reserved hardware).
	lowIdx, highIdx := nModels-1, 0
	oLow := oo
	oLow.PrefillGPUs, oLow.DecodeGPUs = 1, 1
	lowUtil, _ := runUtilization(oLow, models[lowIdx:lowIdx+1], traces[lowIdx])
	highUtil, _ := runUtilization(oLow, models[highIdx:highIdx+1], traces[highIdx])

	t := Table{
		ID:     "Figure 18 / §7.5",
		Title:  "GPU utilization before vs after pooling (H20, 28 TP=1 production models)",
		Header: []string{"deployment", "GPUs", "mean compute utilization", "peak window"},
	}
	t.Rows = append(t.Rows,
		[]string{"Before (low load, dedicated)", "2", fmtPct(lowUtil), "-"},
		[]string{"Before (high load, dedicated)", "2", fmtPct(highUtil), "-"},
		[]string{"After (Aegaeon pool)", "8", fmtPct(after), fmtPct(afterTS.Max())},
	)
	dedicated := nModels * 2
	saving := 1 - 8.0/float64(dedicated)
	t.Rows = append(t.Rows, []string{
		"GPU reduction (this pool)",
		fmt.Sprintf("%d -> 8", dedicated),
		fmtPct(saving), "-",
	})
	t.Notes = "paper: utilization rises from 13.3–33.9% to 48.1%; deployment shrinks 1,192 -> 213 GPUs (82% saving, incl. burst/fault redundancy on both sides)"
	return t
}

// runUtilization serves the trace and returns the mean and windowed
// compute-engine utilization across all instances.
func runUtilization(o Options, models []*model.Model, trace []workload.Request) (float64, *metrics.TimeSeries) {
	sys, se := buildAegaeon(o, models)
	mustSubmit(sys, trace)
	const window = 10 * time.Second
	ts := metrics.NewTimeSeries(window)
	engines := sys.Engines()
	prev := make([]time.Duration, len(engines))
	var sample func()
	sample = func() {
		var delta time.Duration
		for i, e := range engines {
			b := e.Device().BusyTime(gpu.Compute)
			delta += b - prev[i]
			prev[i] = b
		}
		ts.Append(float64(delta) / float64(window*time.Duration(len(engines))))
		if se.Now() < o.Horizon {
			se.After(window, sample)
		}
	}
	se.After(window, sample)
	se.Run()
	sys.Finalize(se.Now())
	return ts.Mean(), ts
}
