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
// schedule, clean and under a crash plus a transfer-failure window, because
// observers record scheduling and never steer it.
func TestPaperScheduleGolden(t *testing.T) {
	for _, sched := range []struct {
		prefix    string // subtest name prefix
		faults    string
		events    uint64
		completed int
		tokens    int
		digest    string
	}{
		{"", "", 233_096, 1_189, 455_626,
			"7d243346bde6d6c32d859c7be597054eb14d70cb543f7238a76fc644ad0c0d5d"},
		{"faulted/", "crash@60s:decode0,xfer@90s+10s:decode1", 218_899, 1_189, 455_626,
			"aed396820d868b79c16d772d957573b519521453b96c8db8804b2eba9f6f129b"},
	} {
		for mask := 0; mask < 16; mask++ {
			cfg := Config{
				Faults:          sched.faults,
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
				rep, err := sys.Serve(sys.GenerateTrace(TraceSpec{RatePerModel: 0.1, Horizon: 5 * time.Minute}))
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
				if rep.Requests != 1_189 || rep.Completed != sched.completed {
					t.Errorf("requests = %d (completed %d), want 1189 (completed %d)",
						rep.Requests, rep.Completed, sched.completed)
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
