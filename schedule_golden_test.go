package aegaeon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"
)

// TestPaperScheduleGolden pins the schedule of the paper testbed (16xH800 as
// 6 prefill + 10 decode, 40 models, 0.1 req/s per model, 5 min, seed 1): the
// kernel's event count, the request and token totals, and the sha256 of every
// request's token timestamps. A kernel or data-plane change that reorders a
// single event, or moves a single token by a nanosecond, fails here. Every
// arm must give the same schedule: observers don't perturb scheduling.
func TestPaperScheduleGolden(t *testing.T) {
	for _, arm := range []struct {
		name string
		cfg  Config
	}{
		{"observers-off", Config{}},
		{"tracing", Config{Tracing: true}},
		{"all-observers", Config{Tracing: true, SLOMonitor: true, Decisions: true, FleetAccounting: true}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := arm.cfg
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

			if got, want := sys.EventsProcessed(), uint64(321_466); got != want {
				t.Errorf("events = %d, want %d", got, want)
			}
			if rep.Requests != 1_189 || rep.Completed != 1_189 {
				t.Errorf("requests = %d (completed %d), want 1189", rep.Requests, rep.Completed)
			}
			if rep.GeneratedTokens != 455_626 {
				t.Errorf("generated tokens = %d, want 455626", rep.GeneratedTokens)
			}
			const want = "7d243346bde6d6c32d859c7be597054eb14d70cb543f7238a76fc644ad0c0d5d"
			if digest != want {
				t.Errorf("token-timestamp digest = %s, want %s", digest, want)
			}
		})
	}
}
