package workload

import (
	"math/rand"
	"time"
)

// Constant returns the flat pattern (always the peak rate).
func Constant() RateFunc { return func(time.Duration) float64 { return 1 } }

// WeightedPoissonTrace draws a trace where model i receives rate
// totalRate * weights[i] / sum(weights).
func WeightedPoissonTrace(rng *rand.Rand, models []string, weights []float64, totalRate float64, horizon time.Duration, ds Dataset) []Request {
	if len(models) != len(weights) {
		panic("workload: models/weights length mismatch")
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	var out []Request
	for i, m := range models {
		rate := totalRate * weights[i] / sum
		if rate <= 0 {
			continue
		}
		t := 0.0
		for {
			t += rng.ExpFloat64() / rate
			at := time.Duration(t * float64(time.Second))
			if at >= horizon {
				break
			}
			in, o := ds.Sample(rng)
			out = append(out, Request{Model: m, Arrival: at, InputTokens: in, OutputTokens: o})
		}
	}
	sortAndNumber(out)
	return out
}
