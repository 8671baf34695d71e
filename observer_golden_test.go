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

// TestObserverExportsGolden pins every observer export of the paper testbed
// (16xH800 as 6 prefill + 10 decode, 40 models, 0.1 req/s per model, 3 min,
// seed 1) with all four observers on: the fleet ledger's report block, the
// Perfetto trace, the decision journal and the SLO monitor's report block.
// The SLO block must equal the monitor-only golden of TestSLOMonitorGolden,
// so turning the other observers on perturbs neither the schedule nor the
// monitor.
func TestObserverExportsGolden(t *testing.T) {
	sys, err := aegaeon.New(aegaeon.Config{GPU: "H800", PrefillGPUs: 6, DecodeGPUs: 10,
		NumModels: 40, Seed: 1,
		Tracing: true, SLOMonitor: true, Decisions: true, FleetAccounting: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Serve(sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: 3 * time.Minute}))
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
	for _, c := range []struct{ name, got, want string }{
		{"Report.Fleet", digest(fleet), "2e2da6b540c70f97f24ec0eb267136a18e4e0c61e07953a011d26ffdac8a1380"},
		{"WritePerfetto", digest(perfetto.Bytes()), "c1d236849ae5ac6e3889c94d38d5372cbbeb72faf7a37832ad49ec28c1f40137"},
		{"WriteDecisions", digest(journal.Bytes()), "4d40ef515cc0fb019545a6676cc445f13c2c4c673c4a8617552a0168e62fac09"},
		{"Report.SLO", sloDigest(t, rep.SLO), "bad67b0ab10f20bf7dc47510b8b05124575acba16fa471feac7da3d3779cce24"},
	} {
		if c.got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, c.got, c.want)
		}
	}
}
