// Package slo implements the per-token SLO semantics of §2.1 and Fig. 3:
// token i of a request carries deadline arrival + TTFT + i·TBT, output can
// be buffered (a token generated early banks slack for later stalls), and
// SLO attainment is the fraction of token generations meeting deadlines.
package slo

import (
	"fmt"
	"time"

	"aegaeon/internal/metrics"
)

// SLO is a (TTFT, TBT) target pair.
type SLO struct {
	TTFT time.Duration
	TBT  time.Duration
}

// Default returns the paper's production targets (§7.1): TTFT 10 s,
// TBT 100 ms.
func Default() SLO { return SLO{TTFT: 10 * time.Second, TBT: 100 * time.Millisecond} }

// Scale multiplies both targets by f (Fig. 13's 0.5×/0.3×/0.2× settings).
func (s SLO) Scale(f float64) SLO {
	return SLO{
		TTFT: time.Duration(float64(s.TTFT) * f),
		TBT:  time.Duration(float64(s.TBT) * f),
	}
}

// ScaleTTFT scales only the TTFT target (Fig. 17 right).
func (s SLO) ScaleTTFT(f float64) SLO {
	return SLO{TTFT: time.Duration(float64(s.TTFT) * f), TBT: s.TBT}
}

// ScaleTBT scales only the TBT target (Fig. 17 left).
func (s SLO) ScaleTBT(f float64) SLO {
	return SLO{TTFT: s.TTFT, TBT: time.Duration(float64(s.TBT) * f)}
}

func (s SLO) String() string { return fmt.Sprintf("TTFT=%v TBT=%v", s.TTFT, s.TBT) }

// Deadline returns the generation deadline of token i (0-based) for a
// request that arrived at the given time.
func (s SLO) Deadline(arrival time.Duration, i int) time.Duration {
	return arrival + s.TTFT + time.Duration(i)*s.TBT
}

// Counts tallies judged tokens.
type Counts struct{ Met, Missed uint64 }

// Attainment returns the fraction of tokens that met their deadlines in
// [0,1]: the paper's SLO attainment. With no tokens it returns 1.
func (c Counts) Attainment() float64 {
	total := c.Met + c.Missed
	if total == 0 {
		return 1
	}
	return float64(c.Met) / float64(total)
}

// Verdict is the judgement of one request's tokens against its SLO. Judge
// and Stream fill every field but Dropped, which the caller sets.
type Verdict struct {
	Counts                // the generated tokens
	AllMet  bool          // a token was generated, and every one met its deadline
	TTFT    time.Duration // the first token's latency (0 when none was generated)
	TTFTMet bool          // the first token met the TTFT target
	// Dropped counts never-generated tokens the caller judges missed (a
	// failed request's tail, a starved one's overdue tokens), so saturated
	// systems cannot launder failures by never finishing work.
	Dropped uint64
}

// Stream judges one request's tokens as they land, in order, each against
// its own deadline, so judging a request keeps a few counts instead of every
// token's time. The zero value has judged no token.
type Stream struct {
	Counts                // the tokens judged so far
	ttft    time.Duration // the first token's latency (0 before it lands)
	ttftMet bool          // the first token met the TTFT target
}

// Add judges the request's next token, completed at `at`, under s for a
// request that arrived at arrival.
func (a *Stream) Add(s SLO, arrival, at time.Duration) {
	i := a.N()
	if i == 0 {
		a.ttft = at - arrival
		a.ttftMet = a.ttft <= s.TTFT
	}
	if at <= s.Deadline(arrival, i) {
		a.Met++
	} else {
		a.Missed++
	}
}

// N returns the number of tokens judged.
func (a *Stream) N() int { return int(a.Met + a.Missed) }

// Verdict returns the judgement of the tokens added so far, with Dropped
// left for the caller.
func (a *Stream) Verdict() Verdict {
	return Verdict{Counts: a.Counts, AllMet: a.N() > 0 && a.Missed == 0, TTFT: a.ttft, TTFTMet: a.ttftMet}
}

// Judge judges one completed (or partially completed) request: times[i] is
// the completion time of token i and arrival the request's arrival time.
// It is Stream's fold over times, which it reads and never retains, so a
// caller may pass a slice it keeps writing.
func Judge(s SLO, arrival time.Duration, times []time.Duration) Verdict {
	var a Stream
	for _, at := range times {
		a.Add(s, arrival, at)
	}
	return a.Verdict()
}

// maxTTFTSamples bounds the tracker's TTFT quantile reservoir so long-lived
// trackers (the live monitoring path observes them for the whole life of a
// gateway) hold flat memory.
const maxTTFTSamples = 8192

// Tracker accumulates token-level attainment across requests. The zero value
// is ready to use.
type Tracker struct {
	tokens    Counts
	requests  uint64
	reqAllMet uint64

	ttftSum   time.Duration
	ttftCount uint64
	ttftMet   uint64
	ttftCDF   *metrics.Reservoir
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Add counts one judged request: its generated tokens, its dropped tokens
// as missed ones, and its first token's latency.
func (t *Tracker) Add(v Verdict) {
	t.requests++
	t.tokens.Met += v.Met
	t.tokens.Missed += v.Missed + v.Dropped
	if v.AllMet {
		t.reqAllMet++
	}
	if v.Met+v.Missed == 0 {
		return // no first token
	}
	t.ttftSum += v.TTFT
	t.ttftCount++
	if t.ttftCDF == nil {
		t.ttftCDF = metrics.NewReservoir(maxTTFTSamples)
	}
	t.ttftCDF.AddDuration(v.TTFT)
	if v.TTFTMet {
		t.ttftMet++
	}
}

// Attainment returns the fraction of tokens that met their deadlines in
// [0,1]. With no observations it returns 1.
func (t *Tracker) Attainment() float64 {
	return t.tokens.Attainment()
}

// RequestAttainment returns the fraction of requests whose verdict is
// AllMet: every generated token on time. Dropped tokens do not change it.
func (t *Tracker) RequestAttainment() float64 {
	if t.requests == 0 {
		return 1
	}
	return float64(t.reqAllMet) / float64(t.requests)
}

// TTFTAttainment returns the fraction of first tokens within the TTFT
// target.
func (t *Tracker) TTFTAttainment() float64 {
	if t.ttftCount == 0 {
		return 1
	}
	return float64(t.ttftMet) / float64(t.ttftCount)
}

// MeanTTFT returns the average time-to-first-token.
func (t *Tracker) MeanTTFT() time.Duration {
	if t.ttftCount == 0 {
		return 0
	}
	return t.ttftSum / time.Duration(t.ttftCount)
}

// TTFTQuantile returns the q-th quantile of observed TTFTs (0 if none).
// Beyond maxTTFTSamples observations the quantile is estimated from a
// uniform reservoir rather than the full sample set.
func (t *Tracker) TTFTQuantile(q float64) time.Duration {
	if t.ttftCDF == nil || t.ttftCDF.N() == 0 {
		return 0
	}
	return time.Duration(t.ttftCDF.Quantile(q) * float64(time.Second))
}

// Tokens returns (met, missed) counts.
func (t *Tracker) Tokens() (met, missed uint64) {
	return t.tokens.Met, t.tokens.Missed
}

// Requests returns the number of requests observed.
func (t *Tracker) Requests() uint64 {
	return t.requests
}
