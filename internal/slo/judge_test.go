package slo

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"time"

	"aegaeon/internal/metrics"
)

// refTracker transcribes the per-token judgement the tracker made before
// Judge existed: ObserveRequest judged each token as it counted it, and
// ObserveDropped counted one missed token. It is the reference FuzzJudge
// holds Judge and Tracker.Add to.
type refTracker struct {
	tokensMet, tokensMissed uint64
	requests, reqAllMet     uint64
	ttftSum                 time.Duration
	ttftCount, ttftMet      uint64
	ttftCDF                 *metrics.Reservoir
}

func (t *refTracker) ObserveRequest(s SLO, arrival time.Duration, times []time.Duration) {
	t.requests++
	allMet := true
	for i, at := range times {
		if at <= s.Deadline(arrival, i) {
			t.tokensMet++
		} else {
			t.tokensMissed++
			allMet = false
		}
	}
	if len(times) > 0 {
		ttft := times[0] - arrival
		t.ttftSum += ttft
		t.ttftCount++
		if t.ttftCDF == nil {
			t.ttftCDF = metrics.NewReservoir(maxTTFTSamples)
		}
		t.ttftCDF.AddDuration(ttft)
		if ttft <= s.TTFT {
			t.ttftMet++
		}
	} else {
		allMet = false // request produced nothing: count as violated
	}
	if allMet {
		t.reqAllMet++
	}
}

func (t *refTracker) ObserveDropped() { t.tokensMissed++ }

// refVerdict reads one request's verdict off the reference: what a fresh
// refTracker holds after observing only that request.
func refVerdict(s SLO, arrival time.Duration, times []time.Duration) Verdict {
	var t refTracker
	t.ObserveRequest(s, arrival, times)
	return Verdict{Counts: Counts{Met: t.tokensMet, Missed: t.tokensMissed},
		AllMet: t.reqAllMet == 1, TTFT: t.ttftSum, TTFTMet: t.ttftMet == 1}
}

// checkStream feeds times to a Stream in random per-step batches, as decode
// steps land, and holds the verdict after every batch to the reference's
// verdict on the tokens fed so far.
func checkStream(t *testing.T, s SLO, arrival time.Duration, times []time.Duration) {
	rng := rand.New(rand.NewPCG(uint64(arrival), uint64(len(times))))
	var a Stream
	for fed := 0; fed < len(times); {
		step := min(fed+1+rng.IntN(4), len(times))
		for _, at := range times[fed:step] {
			a.Add(s, arrival, at)
		}
		fed = step
		if got, want := a.Verdict(), refVerdict(s, arrival, times[:fed]); got != want {
			t.Fatalf("stream after %d of %v (SLO %v, arrival %v):\n got %+v\nwant %+v",
				fed, times, s, arrival, got, want)
		}
	}
	if got, want := a.Verdict(), refVerdict(s, arrival, times); got != want {
		t.Fatalf("stream of %v (SLO %v, arrival %v):\n got %+v\nwant %+v", times, s, arrival, got, want)
	}
}

// trackerView is everything a Tracker reports.
type trackerView struct {
	att, reqAtt, ttftAtt float64
	met, missed, reqs    uint64
	mean                 time.Duration
	quantiles            [4]time.Duration
}

var viewQuantiles = [4]float64{0, 0.5, 0.99, 1}

func viewOf(tr *Tracker) trackerView {
	v := trackerView{att: tr.Attainment(), reqAtt: tr.RequestAttainment(),
		ttftAtt: tr.TTFTAttainment(), reqs: tr.Requests(), mean: tr.MeanTTFT()}
	v.met, v.missed = tr.Tokens()
	for i, q := range viewQuantiles {
		v.quantiles[i] = tr.TTFTQuantile(q)
	}
	return v
}

// viewOfRef reads the reference with the Tracker readers' formulas.
func viewOfRef(t *refTracker) trackerView {
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 1
		}
		return float64(num) / float64(den)
	}
	v := trackerView{
		att:     ratio(t.tokensMet, t.tokensMet+t.tokensMissed),
		reqAtt:  ratio(t.reqAllMet, t.requests),
		ttftAtt: ratio(t.ttftMet, t.ttftCount),
		met:     t.tokensMet, missed: t.tokensMissed, reqs: t.requests,
	}
	if t.ttftCount > 0 {
		v.mean = t.ttftSum / time.Duration(t.ttftCount)
	}
	if t.ttftCDF != nil && t.ttftCDF.N() > 0 {
		for i, q := range viewQuantiles {
			v.quantiles[i] = time.Duration(t.ttftCDF.Quantile(q) * float64(time.Second))
		}
	}
	return v
}

// FuzzJudge: Judge and Tracker.Add report exactly what the per-token
// reference does, through every Tracker reader, and a Stream fed the same
// times step by step gives the reference's verdict at every step, for any
// SLO and any requests, whose token times may be empty, out of order, or
// earlier than their arrival. The input is read as an SLO (TTFT and TBT,
// 2 bytes each) then requests: an arrival (2 bytes), a token count and a
// dropped count (1 byte each), then 2 bytes per token time. Every unit is
// a millisecond.
func FuzzJudge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x27, 0x10, 0, 100, 0, 0, 3, 0, 0x03, 0xe8, 0x04, 0x4c, 0x05, 0xdc})
	f.Add([]byte{0, 50, 0, 10, 0, 20, 0, 5, 0, 20, 4, 1, 0, 90, 0, 10, 0, 95, 0, 85, 0, 1, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 2, 0, 0xff, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		ms := func() time.Duration {
			if len(in) < 2 {
				in = nil
				return 0
			}
			d := time.Duration(int16(binary.BigEndian.Uint16(in))) * time.Millisecond
			in = in[2:]
			return d
		}
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b
		}
		s := SLO{TTFT: ms(), TBT: ms()}
		tr, ref := NewTracker(), &refTracker{}
		for len(in) > 0 {
			arrival := ms()
			times := make([]time.Duration, next()%16)
			dropped := next() % 8
			for i := range times {
				times[i] = ms()
			}
			checkStream(t, s, arrival, times)
			v := Judge(s, arrival, times)
			v.Dropped = uint64(dropped)
			tr.Add(v)
			ref.ObserveRequest(s, arrival, times)
			for range dropped {
				ref.ObserveDropped()
			}
			if got, want := viewOf(tr), viewOfRef(ref); got != want {
				t.Fatalf("after request %d (SLO %v, arrival %v, times %v, dropped %d):\n got %+v\nwant %+v",
					ref.requests, s, arrival, times, dropped, got, want)
			}
		}
	})
}
