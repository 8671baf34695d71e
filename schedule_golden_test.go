package aegaeon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
	"time"
)

// TestPaperScheduleGolden pins the schedule of the paper testbed (16xH800 as
// 6 prefill + 10 decode, 40 models, 0.1 req/s per model, 5 min, seed 1): the
// kernel's event count, the request and token totals, and the sha256 of every
// request's token timestamps. A kernel or data-plane change that reorders a
// single event, or moves a single token by a nanosecond, fails here.
//
// It is also the inertness matrix: every subset of the four observers
// (tracing, SLO monitor, decision journal, fleet ledger) must give the same
// schedule, with one event pin for all of them, because observers record
// scheduling and never steer it. It checks three schedules: the clean one,
// one under a crash plus a transfer-failure window, and the sessions shape
// (multi-turn chat at 0.02 req/s per model for 3 min, routed by cached
// prefix).
func TestPaperScheduleGolden(t *testing.T) {
	paper := TraceSpec{RatePerModel: 0.1, Horizon: 5 * time.Minute}
	for _, sched := range []struct {
		prefix    string // subtest name prefix
		faults    string
		sessions  bool // the sessions shape instead of the paper trace
		events    uint64
		requests  int
		completed int
		tokens    int
		digest    string
	}{
		{"", "", false, 30_607, 1_189, 1_189, 455_626,
			"7d243346bde6d6c32d859c7be597054eb14d70cb543f7238a76fc644ad0c0d5d"},
		{"faulted/", "crash@60s:decode0,xfer@90s+10s:decode1", false, 28_812, 1_189, 1_189, 455_626,
			"aed396820d868b79c16d772d957573b519521453b96c8db8804b2eba9f6f129b"},
		{"sessions/", "", true, 11_771, 414, 414, 133_454,
			"f2f4bfe0e2abe67864bcd298359153cb88ca927f724d3a6f9ae417900f5cc5b8"},
	} {
		spec := paper
		if sched.sessions {
			spec = TraceSpec{RatePerModel: 0.02, Horizon: 3 * time.Minute, Workload: MultiTurn, SystemPromptTokens: 128}
		}
		for mask := 0; mask < 16; mask++ {
			cfg := Config{
				Faults:          sched.faults,
				PrefixRouting:   sched.sessions,
				Tracing:         mask&1 != 0,
				SLOMonitor:      mask&2 != 0,
				Decisions:       mask&4 != 0,
				FleetAccounting: mask&8 != 0,
			}
			arm := "observers-off"
			if mask == 15 {
				arm = "all-observers"
			} else if mask != 0 {
				var on []string
				for i, name := range []string{"tracing", "slo", "decisions", "fleet"} {
					if mask&(1<<i) != 0 {
						on = append(on, name)
					}
				}
				arm = strings.Join(on, "+")
			}
			t.Run(sched.prefix+arm, func(t *testing.T) {
				t.Parallel()
				cfg.GPU, cfg.PrefillGPUs, cfg.DecodeGPUs, cfg.NumModels, cfg.Seed = "H800", 6, 10, 40, 1
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sys.sys.LogTokens()
				rep, err := sys.Serve(sys.GenerateTrace(spec))
				if err != nil {
					t.Fatal(err)
				}

				h := sha256.New()
				var buf [8]byte
				for _, r := range sys.sys.Requests() {
					h.Write([]byte(r.ID))
					h.Write([]byte{0})
					for _, at := range r.TokenTimes {
						binary.BigEndian.PutUint64(buf[:], uint64(at))
						h.Write(buf[:])
					}
				}
				digest := hex.EncodeToString(h.Sum(nil))

				if got := sys.EventsProcessed(); got != sched.events {
					t.Errorf("events = %d, want %d", got, sched.events)
				}
				if rep.Requests != sched.requests || rep.Completed != sched.completed {
					t.Errorf("requests = %d (completed %d), want %d (completed %d)",
						rep.Requests, rep.Completed, sched.requests, sched.completed)
				}
				if rep.GeneratedTokens != sched.tokens {
					t.Errorf("generated tokens = %d, want %d", rep.GeneratedTokens, sched.tokens)
				}
				if digest != sched.digest {
					t.Errorf("token-timestamp digest = %s, want %s", digest, sched.digest)
				}
			})
		}
	}
}
