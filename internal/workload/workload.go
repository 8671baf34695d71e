// Package workload synthesizes the request workloads of §7.1: ShareGPT-like
// prompt/output length distributions (plus the -ix2/-ox2 scaled variants),
// Poisson arrival processes per model, the Zipf-skewed marketplace
// popularity of Fig. 1(a), and the bursty hot-model traffic of Fig. 1(b).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Request is one inference request: a prompt for a target model arriving at
// a point in time, with an (oracle) output length used by the simulator to
// know when generation ends and by the ServerlessLLM+ baseline's SJF.
type Request struct {
	ID           string
	Model        string
	Arrival      time.Duration // offset from trace start
	InputTokens  int
	OutputTokens int
	// Priority is the request's service tier for overload control. The zero
	// value (PriorityNormal) matches pre-priority traces.
	Priority Priority
	// SessionID groups the turns of one conversation (empty for single-shot
	// requests). A session's turns arrive in order. Routing follows the
	// prompt's Segments, not the session.
	SessionID string
	// Segments describes the prompt's token content as deterministic
	// streams, so the prefix cache can tell when two prompts share a prefix.
	// Empty means opaque content (never matches anything). When present the
	// segment lengths must sum to InputTokens.
	Segments []PromptSeg
}

// PromptSeg is a run of deterministic prompt tokens: position i of the
// segment has the token value derived from (Seed, i). Two prompts share a
// prefix exactly as far as their segment lists agree, which is how the
// workload generators express "turn n+1 re-sends turn n's context": the
// next turn reuses the same seeds and extends the lengths.
type PromptSeg struct {
	Seed uint64
	Len  int
}

// Dataset samples request lengths.
type Dataset interface {
	// Sample returns (input tokens, output tokens).
	Sample(rng *rand.Rand) (in, out int)
	// Name identifies the dataset in reports.
	Name() string
}

// shareGPT approximates the ShareGPT length distributions with clipped
// lognormals. Medians land near the dataset's commonly reported statistics
// (prompt ≈ 150 tokens, response ≈ 250 tokens) and the resulting mean
// request service time on the simulated H800 matches the §3.1 anchor of
// T ≈ 16.79 s at the default SLOs.
type shareGPT struct {
	inScale, outScale float64
	name              string
}

// ShareGPT returns the base dataset.
func ShareGPT() Dataset { return &shareGPT{inScale: 1, outScale: 1, name: "ShareGPT"} }

// ShareGPTIx2 doubles input lengths (the paper's ShareGPT-ix2).
func ShareGPTIx2() Dataset { return &shareGPT{inScale: 2, outScale: 1, name: "ShareGPT-ix2"} }

// ShareGPTOx2 doubles output lengths (the paper's ShareGPT-ox2).
func ShareGPTOx2() Dataset { return &shareGPT{inScale: 1, outScale: 2, name: "ShareGPT-ox2"} }

func (d *shareGPT) Name() string { return d.name }

func (d *shareGPT) Sample(rng *rand.Rand) (int, int) {
	in := lognormClip(rng, 5.0, 1.1, 4, 4096) * d.inScale
	out := lognormClip(rng, 5.5, 0.9, 4, 2048) * d.outScale
	return int(in), int(out)
}

func lognormClip(rng *rand.Rand, mu, sigma, lo, hi float64) float64 {
	v := math.Exp(mu + sigma*rng.NormFloat64())
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// Fixed returns a dataset with constant lengths, for deterministic tests.
func Fixed(in, out int) Dataset { return fixedDS{in: in, out: out} }

type fixedDS struct{ in, out int }

func (d fixedDS) Sample(*rand.Rand) (int, int) { return d.in, d.out }
func (d fixedDS) Name() string                 { return fmt.Sprintf("Fixed(%d,%d)", d.in, d.out) }

// PoissonTrace draws a trace where each model receives requests from an
// independent Poisson process with ratePerModel requests/second over the
// horizon, with lengths from ds. Requests are returned sorted by arrival.
func PoissonTrace(rng *rand.Rand, models []string, ratePerModel float64, horizon time.Duration, ds Dataset) []Request {
	var out []Request
	for _, m := range models {
		t := 0.0
		for {
			t += rng.ExpFloat64() / ratePerModel
			at := time.Duration(t * float64(time.Second))
			if at >= horizon {
				break
			}
			in, o := ds.Sample(rng)
			out = append(out, Request{
				Model:        m,
				Arrival:      at,
				InputTokens:  in,
				OutputTokens: o,
			})
		}
	}
	sortAndNumber(out)
	return out
}

func sortAndNumber(reqs []Request) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	for i := range reqs {
		reqs[i].ID = fmt.Sprintf("r%06d", i)
	}
}

// ZipfWeights returns Zipf popularity weights w_k = 1/k^s for k = 1..n.
// s ≈ 2 reproduces Fig. 1(a)'s skew: the top ~6% of models receive ~98.65%
// of requests.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// MarketCDF summarizes a popularity distribution as in Fig. 1(a): for the
// top fraction of models (by popularity), the fraction of total requests
// they receive.
func MarketCDF(weights []float64) func(topModelsFrac float64) (requestFrac float64) {
	sorted := append([]float64(nil), weights...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	prefix := make([]float64, len(sorted)+1)
	for i, w := range sorted {
		prefix[i+1] = prefix[i] + w
	}
	total := prefix[len(sorted)]
	return func(frac float64) float64 {
		k := int(math.Round(frac * float64(len(sorted))))
		if k < 0 {
			k = 0
		}
		if k > len(sorted) {
			k = len(sorted)
		}
		if total == 0 {
			return 0
		}
		return prefix[k] / total
	}
}

// BurstTrace models the hot-model traffic of Fig. 1(b): a two-state MMPP
// alternating between a base rate and a burst rate, with exponential state
// dwell times. It returns the trace and the per-second offered rate
// timeline (for plotting against the reserved capacity).
func BurstTrace(rng *rand.Rand, modelName string, baseRate, burstRate float64, meanNormal, meanBurst, horizon time.Duration, ds Dataset) ([]Request, []float64) {
	var reqs []Request
	seconds := int(horizon / time.Second)
	rates := make([]float64, seconds)

	t := 0.0
	end := horizon.Seconds()
	inBurst := false
	stateEnd := rng.ExpFloat64() * meanNormal.Seconds()
	for t < end {
		rate := baseRate
		if inBurst {
			rate = burstRate
		}
		// Next arrival under the current rate.
		dt := rng.ExpFloat64() / rate
		if t+dt > stateEnd {
			// State flips before next arrival.
			t = stateEnd
			inBurst = !inBurst
			if inBurst {
				stateEnd = t + rng.ExpFloat64()*meanBurst.Seconds()
			} else {
				stateEnd = t + rng.ExpFloat64()*meanNormal.Seconds()
			}
			continue
		}
		t += dt
		if t >= end {
			break
		}
		in, o := ds.Sample(rng)
		reqs = append(reqs, Request{
			Model:        modelName,
			Arrival:      time.Duration(t * float64(time.Second)),
			InputTokens:  in,
			OutputTokens: o,
		})
		if s := int(t); s >= 0 && s < seconds {
			rates[s]++
		}
	}
	sortAndNumber(reqs)
	return reqs, rates
}

// Merge combines traces, re-sorting by arrival and renumbering IDs.
func Merge(traces ...[]Request) []Request {
	var out []Request
	for _, t := range traces {
		out = append(out, t...)
	}
	sortAndNumber(out)
	return out
}

// Stats summarizes a trace.
type Stats struct {
	Requests  int
	Models    int
	MeanIn    float64
	MeanOut   float64
	TotalRate float64 // requests/second over the span
}

// Summarize computes trace statistics.
func Summarize(reqs []Request) Stats {
	if len(reqs) == 0 {
		return Stats{}
	}
	models := map[string]bool{}
	var in, out float64
	for _, r := range reqs {
		models[r.Model] = true
		in += float64(r.InputTokens)
		out += float64(r.OutputTokens)
	}
	span := reqs[len(reqs)-1].Arrival.Seconds()
	st := Stats{
		Requests: len(reqs),
		Models:   len(models),
		MeanIn:   in / float64(len(reqs)),
		MeanOut:  out / float64(len(reqs)),
	}
	if span > 0 {
		st.TotalRate = float64(len(reqs)) / span
	}
	return st
}
