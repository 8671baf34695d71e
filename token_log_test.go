package aegaeon

import (
	"reflect"
	"testing"
	"time"
)

// TestTokenLogIsInert serves the paper testbed (16 H800s as 6+10, 40 models
// at 0.1 req/s, 5 minutes, seed 1, with the SLO monitor and fleet ledger on)
// with the core's token log off and on. The log only keeps times: both runs
// give the same Report and, request by request, the same token count and
// first and last token times, and the log agrees with those three.
func TestTokenLogIsInert(t *testing.T) {
	t.Parallel()
	type run struct {
		sys *System
		rep Report
	}
	serve := func(logTokens bool) run {
		sys, err := New(Config{GPU: "H800", PrefillGPUs: 6, DecodeGPUs: 10, NumModels: 40, Seed: 1,
			SLOMonitor: true, FleetAccounting: true})
		if err != nil {
			t.Fatal(err)
		}
		if logTokens {
			sys.sys.LogTokens()
		}
		rep, err := sys.Serve(sys.GenerateTrace(TraceSpec{RatePerModel: 0.1, Horizon: 5 * time.Minute}))
		if err != nil {
			t.Fatal(err)
		}
		return run{sys, rep}
	}
	off, on := serve(false), serve(true)
	if !reflect.DeepEqual(off.rep, on.rep) {
		t.Errorf("reports differ with the token log on:\noff %+v\n on %+v", off.rep, on.rep)
	}
	offReqs, onReqs := off.sys.sys.Requests(), on.sys.sys.Requests()
	if len(offReqs) != len(onReqs) || len(onReqs) == 0 {
		t.Fatalf("%d requests with the log off, %d on", len(offReqs), len(onReqs))
	}
	for i, a := range offReqs {
		b := onReqs[i]
		if a.ID != b.ID || a.Generated() != b.Generated() ||
			a.FirstToken() != b.FirstToken() || a.LastToken() != b.LastToken() {
			t.Fatalf("request %d: off %s %d tokens in [%v, %v], on %s %d tokens in [%v, %v]", i,
				a.ID, a.Generated(), a.FirstToken(), a.LastToken(),
				b.ID, b.Generated(), b.FirstToken(), b.LastToken())
		}
		if a.TokenTimes != nil {
			t.Fatalf("request %s logged %d token times with the log off", a.ID, len(a.TokenTimes))
		}
		if n := len(b.TokenTimes); n != b.Generated() ||
			n > 0 && (b.TokenTimes[0] != b.FirstToken() || b.TokenTimes[n-1] != b.LastToken()) {
			t.Fatalf("request %s: log holds %d times, %d generated in [%v, %v]",
				b.ID, n, b.Generated(), b.FirstToken(), b.LastToken())
		}
	}
	if off.rep.GeneratedTokens == 0 {
		t.Fatal("no tokens generated")
	}
}
