package aegaeon_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"aegaeon"
	"aegaeon/internal/decision"
)

// TestPlacementJournalGolden pins the decision journal of three runs that
// reach the placement records TestObserverExportsGolden never writes: aware
// spot placement excluding devices under notice or throttle, the waiver pass
// once every survivor is excluded, and cache-aware prefix routing. Each run
// serves 0.3 req/s per model for 2 min with the journal on; the counts, taken
// over the journal's flat record ring, check that each run still reaches the
// records its digest pins.
func TestPlacementJournalGolden(t *testing.T) {
	for _, c := range []struct {
		name     string
		cfg      aegaeon.Config
		workload aegaeon.WorkloadKind
		count    func(rec decision.Record) int
		want     int
		digest   string
	}{
		{
			name: "spot",
			cfg: aegaeon.Config{PrefillGPUs: 2, DecodeGPUs: 3, Models: aegaeon.SmallModels(6),
				Market: true, MarketClasses: "H800,A10", MarketSpot: true,
				Faults: "reclaim@45s+5s:decode1,reclaim@50s+5s:prefill0,throttle@20s+15s*4:decode0"},
			count: func(rec decision.Record) int {
				n := 0
				for _, c := range rec.Candidates {
					if c.Excluded {
						n++
					}
				}
				return n
			},
			want:   9,
			digest: "fa66663db6d1610685238bdb5311daf3502b45460202a94f9039f05d9c413405",
		},
		{
			name: "waive",
			cfg: aegaeon.Config{PrefillGPUs: 1, DecodeGPUs: 1, Models: aegaeon.SmallModels(4),
				Market: true, MarketClasses: "H800", MarketSpot: true,
				Faults: "reclaim@30s+20s:prefill0,reclaim@60s+20s:decode0"},
			count: func(rec decision.Record) int {
				if rec.Reason == "market exclusions waived" {
					return 1
				}
				return 0
			},
			want:   119,
			digest: "eb8b0cdafc767a3a781c88477127f21cbaad3cff5cda1205a43bbbbf05aa6cdb",
		},
		{
			name: "prefix",
			cfg: aegaeon.Config{PrefillGPUs: 2, DecodeGPUs: 3, Models: aegaeon.SmallModels(6),
				PrefixRouting: true},
			workload: aegaeon.MultiTurn,
			count: func(rec decision.Record) int {
				if rec.Reason == "cache-aware" {
					return 1
				}
				return 0
			},
			want:   344,
			digest: "10a545ed6d927f63145a4c1c6c30e7f4357819322931d62566bf8737ce84813f",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Decisions = true
			sys, err := aegaeon.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			trace := sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.3, Horizon: 2 * time.Minute,
				Workload: c.workload})
			if _, err := sys.Serve(trace); err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, rec := range sys.Decisions().Snapshot().Records {
				n += c.count(rec)
			}
			var journal bytes.Buffer
			if err := sys.WriteDecisions(&journal); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(journal.Bytes())
			if n != c.want {
				t.Errorf("count = %d, want %d", n, c.want)
			}
			if got := hex.EncodeToString(sum[:]); got != c.digest {
				t.Errorf("WriteDecisions digest = %s, want %s", got, c.digest)
			}
		})
	}
}
