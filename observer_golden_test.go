package aegaeon_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"aegaeon"
)

// observerDigests serves the paper testbed (16xH800 as 6 prefill + 10
// decode, 40 models, 0.1 req/s per model, seed 1) over horizon with all four
// observers on, and checks the sha256 digests of the fleet ledger's report
// block, the Perfetto trace, the decision journal and the SLO monitor's
// report block against want (in that order). It returns the system, so a
// caller can ask how much each observer retained.
func observerDigests(t *testing.T, horizon time.Duration, want [4]string) *aegaeon.System {
	t.Helper()
	sys, err := aegaeon.New(aegaeon.Config{GPU: "H800", PrefillGPUs: 6, DecodeGPUs: 10,
		NumModels: 40, Seed: 1,
		Tracing: true, SLOMonitor: true, Decisions: true, FleetAccounting: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Serve(sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: horizon}))
	if err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}

	fleet, err := json.Marshal(rep.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	var perfetto, journal bytes.Buffer
	if err := sys.WritePerfetto(&perfetto); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteDecisions(&journal); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct{ name, got string }{
		{"Report.Fleet", digest(fleet)},
		{"WritePerfetto", digest(perfetto.Bytes())},
		{"WriteDecisions", digest(journal.Bytes())},
		{"Report.SLO", sloDigest(t, rep.SLO)},
	} {
		if c.got != want[i] {
			t.Errorf("%s digest = %s, want %s", c.name, c.got, want[i])
		}
	}
	return sys
}

// TestObserverExportsGolden pins every observer export of the paper testbed
// on a 3-minute horizon. The SLO block must equal the monitor-only golden of
// TestSLOMonitorGolden, so turning the other observers on perturbs neither
// the schedule nor the monitor.
func TestObserverExportsGolden(t *testing.T) {
	observerDigests(t, 3*time.Minute, [4]string{
		"2e2da6b540c70f97f24ec0eb267136a18e4e0c61e07953a011d26ffdac8a1380",
		"c1d236849ae5ac6e3889c94d38d5372cbbeb72faf7a37832ad49ec28c1f40137",
		"4d40ef515cc0fb019545a6676cc445f13c2c4c673c4a8617552a0168e62fac09",
		"bad67b0ab10f20bf7dc47510b8b05124575acba16fa471feac7da3d3779cce24",
	})
}

// TestObserverExportsGoldenLong pins the same exports on a 20-minute
// horizon. The 3-minute run fills none of the observers' retention bounds;
// this one overflows all four: the journal's record ring and chain index,
// the collector's timeline table and its switch ring. So every export here
// is read back from storage that was reused, and the test asserts that it
// was, so a change to the bounds cannot quietly drop that coverage.
func TestObserverExportsGoldenLong(t *testing.T) {
	if testing.Short() {
		t.Skip("20-minute horizon")
	}
	sys := observerDigests(t, 20*time.Minute, [4]string{
		"b0f8bb4af095e2c1531c383855cb004d0f5b13574d4b03c95439b6bd602632c2",
		"24206e16dd663a3d559d4e94d0f8f1dfc36069c120248cd080efa74c9df39d9a",
		"ece5e8a766e86ee449ad3f9469c94e2639a0a9eafd2418f10e76651f02b568fa",
		"afd32db41c3133b115b85008ca5115f9a161d1750afa51681da608b75de7c612",
	})
	const (
		maxRecords   = 16384 // decision: the record ring
		maxChains    = 4096  // decision: the chain index
		maxTimelines = 2048  // obs: the timeline table
		maxSwitches  = 2048  // obs: the switch ring
	)
	if n := sys.Decisions().Total(); n <= maxRecords {
		t.Errorf("journal recorded %d decisions, want more than the %d its ring keeps", n, maxRecords)
	}
	if n := sys.Decisions().TrackedRequests(); n != maxChains {
		t.Errorf("journal tracks %d chains, want its full %d", n, maxChains)
	}
	if n := len(sys.Collector().Requests(0)); n != maxTimelines {
		t.Errorf("collector keeps %d timelines, want its full %d", n, maxTimelines)
	}
	if kept, total := sys.Collector().Switches(); len(kept) != maxSwitches || total <= maxSwitches {
		t.Errorf("collector keeps %d of %d switches, want %d of more", len(kept), total, maxSwitches)
	}
}
