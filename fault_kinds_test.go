package aegaeon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"
)

// TestFaultKindsGolden injects every fault kind the single-system facade
// accepts — crash, xfer, fetchfail and fetchslow — in one run, and pins
// what each one moves: the fault counters it should bump, and the sha256 of
// every request's token timestamps. The fetchslow window has no counter of
// its own, so the run must also differ from the same run without it.
//
// 90 models overflow the host model cache, so the models past its
// pre-warmed set are fetched remotely on first use, inside the fetchfail
// window.
func TestFaultKindsGolden(t *testing.T) {
	const (
		base     = "fetchfail@2s+40s,xfer@30s+20s:decode1,crash@60s:decode0"
		slow     = ",fetchslow@70s+60s*4"
		wantHash = "c16c1e0263a578addd075d58c229a29824dc3f5957ec4b8d5173a07aee0ef568"
	)
	run := func(faults string) (Report, string) {
		t.Helper()
		sys, err := New(Config{
			GPU: "H800", PrefillGPUs: 2, DecodeGPUs: 3, NumModels: 90, Seed: 3, Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.sys.LogTokens()
		rep, err := sys.Serve(sys.GenerateTrace(TraceSpec{RatePerModel: 0.02, Horizon: 3 * time.Minute}))
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
		return rep, hex.EncodeToString(h.Sum(nil))
	}

	rep, digest := run(base + slow)
	if rep.FaultsInjected != 4 {
		t.Errorf("faults injected = %d, want 4", rep.FaultsInjected)
	}
	f := rep.Faults
	for _, c := range []struct {
		kind, counter string
		n             uint64
	}{
		{"crash", "Crashes", f.Crashes},
		{"crash", "Recoveries", f.Recoveries},
		{"crash", "Resumed+Recomputed", f.Resumed + f.Recomputed},
		{"xfer", "TransferFailures", f.TransferFailures},
		{"xfer", "TransferRetries", f.TransferRetries},
		{"fetchfail", "FetchFailures", f.FetchFailures},
		{"fetchfail", "FetchRetries", f.FetchRetries},
	} {
		if c.n == 0 {
			t.Errorf("%s moved no %s: %+v", c.kind, c.counter, f)
		}
	}
	if rep.Requests != 294 || rep.Completed != 294 || rep.GeneratedTokens != 94_464 {
		t.Errorf("requests %d, completed %d, tokens %d; want 294, 294, 94464",
			rep.Requests, rep.Completed, rep.GeneratedTokens)
	}
	if digest != wantHash {
		t.Errorf("token-timestamp digest = %s, want %s", digest, wantHash)
	}
	if _, without := run(base); without == digest {
		t.Errorf("the fetchslow window left the schedule unchanged")
	}
}
