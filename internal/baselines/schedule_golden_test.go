package baselines

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// tightProfile is an H800 whose usable VRAM holds m's weights plus 14 GiB:
// MuxServe's 12 GiB KV reservation and 2 GiB more. Either system's KV
// budget then holds a few thousand-token requests of m at a time.
func tightProfile(m *model.Model) *latency.Profile {
	p := *latency.H800()
	p.VRAMBytes = int64(float64(m.ShardWeightBytes(1)+14<<30) / 0.9)
	return &p
}

// burstTrace is n requests for one model, arriving over the first five
// seconds, with prompts of 1,000–6,000 tokens and outputs of 8, 16, 32 or
// 64 tokens. Requests admitted together share output lengths, so several
// finish on one decode step while others wait for KV room.
func burstTrace(seed int64, m *model.Model, n int) []workload.Request {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]workload.Request, n)
	for i := range trace {
		trace[i] = workload.Request{
			ID:           fmt.Sprintf("b%02d", i),
			Model:        m.Name,
			Arrival:      time.Duration(rng.Int63n(int64(5 * time.Second))),
			InputTokens:  1000 + rng.Intn(5000),
			OutputTokens: 8 << rng.Intn(4),
		}
	}
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].Arrival < trace[j].Arrival })
	return trace
}

// scheduleDigest hashes every request's id and token timestamps, in trace
// order: reqs[i] serves trace[i].
func scheduleDigest(trace []workload.Request, reqs []*request) string {
	h := sha256.New()
	var buf [8]byte
	for i, r := range reqs {
		h.Write([]byte(trace[i].ID))
		h.Write([]byte{0})
		for _, at := range r.tokenTimes {
			binary.BigEndian.PutUint64(buf[:], uint64(at))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBaselineScheduleGolden pins the schedule ServerlessLLM, ServerlessLLM+
// and MuxServe give two small traces: the completed count, the tokens
// generated and the sha256 of every request's token timestamps. A change to
// the baselines' batching that moves one token by a nanosecond fails here.
//
// The market trace is 6 market models at 0.15 req/s each for 150 s on two
// H800s: ServerlessLLM switches models, SJF reorders its queue, and MuxServe
// colocates two models per GPU and rejects the rest. The burst trace is 24
// requests for one model on one GPU whose KV budget holds a few of them
// (tightProfile): ServerlessLLM queues requests for the model it is serving
// past its budget, and MuxServe finishes several requests on one decode step
// while others wait in its queue, so the order in which it refills matters.
func TestBaselineScheduleGolden(t *testing.T) {
	market := model.MarketMix(6)
	burst := model.MarketMix(1)
	traces := map[string]struct {
		prof   *latency.Profile
		gpus   int
		models []*model.Model
		trace  []workload.Request
	}{
		"market": {latency.H800(), 2, market, marketTrace(31, market, 0.15, 150*time.Second)},
		"burst":  {tightProfile(burst[0]), 1, burst, burstTrace(21, burst[0], 24)},
	}
	for _, c := range []struct {
		trace, system     string
		completed, tokens int
		digest            string
	}{
		{"market", "ServerlessLLM", 124, 45_178,
			"85cbc3d2c445aecd4a64a9a8913ec2bd92f434514a785dc1f346ed44f083a7cc"},
		{"market", "ServerlessLLM+", 124, 45_178,
			"9680f1493420f0b1d109deeb22a9e1e71efb22dd0b4ecb025cb729a0a8fe43ba"},
		{"market", "MuxServe", 93, 32_971,
			"171cc9e293998bb59c44778e36d11117943d23af8a084a1a60d5b623ba6425f0"},
		{"burst", "ServerlessLLM", 24, 456,
			"efbafe1a94f0da051b8741b6fb6043a3269f265295728b2bd3320c2f1da7bda8"},
		{"burst", "ServerlessLLM+", 24, 456,
			"f258345325a4a516382f0f87ae875cbb1ce21ee6b673d9dc496278c60377ba60"},
		{"burst", "MuxServe", 24, 456,
			"1446539a0b32de24781bf11bbe6f75fa9e839c2e21d16903c8315248b4a70165"},
	} {
		t.Run(c.trace+"/"+c.system, func(t *testing.T) {
			tr := traces[c.trace]
			se := sim.NewEngine(1)
			var s Server
			var reqs func() []*request
			switch c.system {
			case "MuxServe":
				mux := NewMux(se, MuxConfig{Prof: tr.prof, GPUs: tr.gpus, Models: tr.models, SLO: slo.Default()})
				s, reqs = mux, func() []*request { return mux.requests }
			default:
				sllm := NewSLLM(se, SLLMConfig{Prof: tr.prof, GPUs: tr.gpus, Models: tr.models, SLO: slo.Default(),
					SJF: c.system == "ServerlessLLM+"})
				s, reqs = sllm, func() []*request { return sllm.requests }
			}
			runServer(t, se, s, tr.trace)
			tokens := 0
			for _, r := range reqs() {
				tokens += len(r.tokenTimes)
			}
			if s.Completed() != c.completed || tokens != c.tokens {
				t.Errorf("completed %d requests and %d tokens, want %d and %d",
					s.Completed(), tokens, c.completed, c.tokens)
			}
			if got := scheduleDigest(tr.trace, reqs()); got != c.digest {
				t.Errorf("token-timestamp digest = %s, want %s", got, c.digest)
			}
		})
	}
}
