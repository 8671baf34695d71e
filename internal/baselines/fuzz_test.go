package baselines

import (
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

// kvChecker wraps a batchLoop's host and fails t if the loop's live KV
// count exceeds its budget. Only admit raises the count, and after any
// admit the loop's next call is another admit, a start or the end of the
// step in flight; kvChecker looks at the count at every start, at both
// ends of every step and after every refill, so it sees every count the
// loop reaches.
type kvChecker struct {
	batchHost
	t    *testing.T
	name string
	loop *batchLoop
}

func (c *kvChecker) check(at string) {
	if c.loop.kvLive > c.loop.kvLimit {
		c.t.Fatalf("%s: %d live KV tokens over a budget of %d %s", c.name, c.loop.kvLive, c.loop.kvLimit, at)
	}
}

func (c *kvChecker) prefill(r *request, done func()) {
	c.check("at a prefill's start")
	c.batchHost.prefill(r, func() { c.check("at a prefill's end"); done() })
}

func (c *kvChecker) decode(ctx int64, done func()) {
	c.check("at a decode step's start")
	c.batchHost.decode(ctx, func() { c.check("at a decode step's end"); done() })
}

func (c *kvChecker) refill() {
	c.batchHost.refill()
	c.check("after a refill")
}

func (c *kvChecker) busy(on bool) {
	c.check("as the loop starts or stops")
	c.batchHost.busy(on)
}

// FuzzBaselines serves a small run on ServerlessLLM, ServerlessLLM+ and
// MuxServe and checks what each leaves. The input is read one byte at a
// time: the model count (1–4 of model.SmallMix), the GPU count (1–2) and
// whether VRAM is tight (tightProfile of the largest model, whose KV budget
// holds a few requests) or an H800's, then up to 16 requests, each a model,
// an arrival in the first 60 s, a prompt of up to 8,176 tokens and an
// output of 1–256 tokens. Missing bytes read as zero. Every system must:
//   - give each request token times that never decrease and none before
//     its arrival;
//   - finish every request of a model it serves (all of them but
//     MuxServe's unplaced ones, which get no token) with exactly its
//     output length;
//   - report as Completed the requests it finished;
//   - never hold more live KV in a batch than its budget.
func FuzzBaselines(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 0, 0, 200, 31, 0, 1, 150, 63, 0, 2, 255, 255, 1, 40, 10, 0, 3, 3, 5, 0})
	f.Add([]byte{1, 0, 1, 0, 0, 180, 7, 0, 0, 190, 15, 0, 0, 170, 7, 0, 5, 200, 1, 0, 9, 160, 31})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 3+16*4)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b
		}
		models := model.SmallMix(1 + next()%4)
		gpus := 1 + next()%2
		prof := latency.H800()
		if next()%2 == 1 {
			largest := models[0]
			for _, m := range models {
				if m.ShardWeightBytes(1) > largest.ShardWeightBytes(1) {
					largest = m
				}
			}
			prof = tightProfile(largest)
		}
		trace := make([]workload.Request, 1+next()%16)
		for i := range trace {
			trace[i] = workload.Request{
				ID:           fmt.Sprintf("f%02d", i),
				Model:        models[next()%len(models)].Name,
				Arrival:      time.Duration(next()) * 60 * time.Second / 256,
				InputTokens:  16 + 32*next(),
				OutputTokens: 1 + next(),
			}
		}
		sort.SliceStable(trace, func(i, j int) bool { return trace[i].Arrival < trace[j].Arrival })

		for _, system := range []string{"ServerlessLLM", "ServerlessLLM+", "MuxServe"} {
			se := sim.NewEngine(1)
			var s Server
			var b *base
			watch := func(name string, loop *batchLoop) {
				loop.host = &kvChecker{batchHost: loop.host, t: t, name: system + " " + name, loop: loop}
			}
			if system == "MuxServe" {
				mux := NewMux(se, MuxConfig{Prof: prof, GPUs: gpus, Models: models, SLO: slo.Default()})
				for _, g := range mux.gpus {
					for _, mm := range g.models {
						watch(mm.m.Name, &mm.loop)
					}
				}
				s, b = mux, &mux.base
			} else {
				sllm := NewSLLM(se, SLLMConfig{Prof: prof, GPUs: gpus, Models: models, SLO: slo.Default(),
					SJF: system == "ServerlessLLM+"})
				for i, in := range sllm.instances {
					watch(fmt.Sprintf("instance %d", i), &in.loop)
				}
				s, b = sllm, &sllm.base
			}
			runServer(t, se, s, trace)
			finished := 0
			for ri, r := range b.requests {
				for i, at := range r.tokenTimes {
					if at < r.arrival || (i > 0 && at < r.tokenTimes[i-1]) {
						t.Fatalf("%s: %s's token %d at %v (arrived %v, tokens %v)", system, trace[ri].ID, i, at, r.arrival, r.tokenTimes)
					}
				}
				switch {
				case r.model == nil:
					if len(r.tokenTimes) != 0 || r.done {
						t.Fatalf("%s: unplaced %s got %d tokens", system, trace[ri].ID, len(r.tokenTimes))
					}
				case !r.done || len(r.tokenTimes) != r.outputTokens:
					t.Fatalf("%s: %s ended with %d of %d tokens (done %v)", system, trace[ri].ID, len(r.tokenTimes), r.outputTokens, r.done)
				default:
					finished++
				}
			}
			if s.Completed() != finished {
				t.Fatalf("%s: Completed() = %d, %d requests finished", system, s.Completed(), finished)
			}
		}
	})
}
