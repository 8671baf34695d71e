package workload

import (
	"math"
	"math/rand"
	"time"
)

// RateFunc modulates an arrival rate over the trace: it returns the
// instantaneous fraction of the peak rate in [0, 1] at a virtual time.
type RateFunc func(at time.Duration) float64

// Diurnal returns a sinusoidal day/night pattern with the given period,
// dipping to trough (fraction of peak, in [0,1]) at the low point — the
// shape production serving traffic follows over a day.
func Diurnal(period time.Duration, trough float64) RateFunc {
	if period <= 0 {
		panic("workload: non-positive diurnal period")
	}
	if trough < 0 {
		trough = 0
	}
	if trough > 1 {
		trough = 1
	}
	amp := (1 - trough) / 2
	mid := trough + amp
	return func(at time.Duration) float64 {
		phase := 2 * math.Pi * float64(at) / float64(period)
		return mid + amp*math.Sin(phase)
	}
}

// ModulatedPoissonTrace draws a non-homogeneous Poisson trace by thinning:
// each model arrives at peakRate·rate(t) requests/second.
func ModulatedPoissonTrace(rng *rand.Rand, models []string, peakRate float64, rate RateFunc, horizon time.Duration, ds Dataset) []Request {
	var out []Request
	end := horizon.Seconds()
	for _, m := range models {
		t := 0.0
		for {
			t += rng.ExpFloat64() / peakRate // candidate at the peak rate
			if t >= end {
				break
			}
			at := time.Duration(t * float64(time.Second))
			if rng.Float64() > rate(at) {
				continue // thinned out
			}
			in, o := ds.Sample(rng)
			out = append(out, Request{Model: m, Arrival: at, InputTokens: in, OutputTokens: o})
		}
	}
	sortAndNumber(out)
	return out
}

// SessionConfig describes multi-turn conversation synthesis.
type SessionConfig struct {
	// MeanTurns is the geometric mean number of turns per session (>= 1).
	MeanTurns float64
	// MeanThink is the mean exponential user think time between a turn's
	// completion and the next turn's arrival.
	MeanThink time.Duration
	// ServiceEstimate predicts a turn's completion latency from its input
	// and output lengths, used to place follow-up arrivals. (Offline trace
	// generation cannot observe actual completions; production multi-turn
	// traces embed the same dependency.)
	ServiceEstimate func(inputTokens, outputTokens int) time.Duration
}

// SessionTrace synthesizes multi-turn conversations: sessions start as a
// Poisson process per model at sessionRate; each turn carries the full
// conversation so far as input (context accumulation), making later turns
// progressively longer — the growth pattern that stresses KV capacity.
func SessionTrace(rng *rand.Rand, models []string, sessionRate float64, cfg SessionConfig, horizon time.Duration, ds Dataset) []Request {
	if cfg.MeanTurns < 1 {
		cfg.MeanTurns = 1
	}
	if cfg.MeanThink <= 0 {
		cfg.MeanThink = 20 * time.Second
	}
	if cfg.ServiceEstimate == nil {
		cfg.ServiceEstimate = func(in, out int) time.Duration {
			return time.Duration(out) * 60 * time.Millisecond
		}
	}
	pCont := 1 - 1/cfg.MeanTurns
	var out []Request
	end := horizon.Seconds()
	for _, m := range models {
		t := 0.0
		for {
			t += rng.ExpFloat64() / sessionRate
			if t >= end {
				break
			}
			// One session: accumulate context across turns.
			at := time.Duration(t * float64(time.Second))
			context := 0
			for {
				in, o := ds.Sample(rng)
				turnIn := context + in
				out = append(out, Request{
					Model: m, Arrival: at, InputTokens: turnIn, OutputTokens: o,
				})
				context = turnIn + o
				if rng.Float64() > pCont {
					break
				}
				at += cfg.ServiceEstimate(turnIn, o) +
					time.Duration(rng.ExpFloat64()*float64(cfg.MeanThink))
				if at >= horizon {
					break
				}
			}
		}
	}
	sortAndNumber(out)
	return out
}
