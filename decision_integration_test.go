package aegaeon

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"aegaeon/internal/decision"
)

// runWhyTrace builds a switch-heavy system (8 models on 2 decode GPUs forces
// constant auto-scaling) under overload and faults, serves the same seeded
// trace, and returns the exported decision journal bytes.
func runWhyTrace(t *testing.T, seed int64) ([]byte, Report) {
	t.Helper()
	sys, err := New(Config{
		PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 8,
		Seed:      seed,
		Decisions: true,
		Overload:  true,
		Faults:    "fetchslow@40s+20s*4,crash@70s:decode1",
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.08, Horizon: 2 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.WriteDecisions(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// TestDecisionJournalDeterminism is the replayability regression test: two
// runs of the identical seeded switch-heavy workload must produce
// byte-identical journal exports. Any nondeterminism in a policy site — map
// iteration in a candidate set, wall-clock leakage into a timestamp — shows
// up here as a diff.
func TestDecisionJournalDeterminism(t *testing.T) {
	a, repA := runWhyTrace(t, 11)
	b, repB := runWhyTrace(t, 11)
	if repA.Switches == 0 {
		t.Fatal("workload produced no switches; the test is not exercising the policy sites")
	}
	if repA.Switches != repB.Switches || repA.Completed != repB.Completed {
		t.Fatalf("replay diverged before the journal: %d/%d switches, %d/%d completed",
			repA.Switches, repB.Switches, repA.Completed, repB.Completed)
	}
	if !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		ctx := func(s []byte) string {
			h := hi
			if h > len(s) {
				h = len(s)
			}
			return string(s[lo:h])
		}
		t.Fatalf("journals differ at byte %d:\n  run A: ...%s...\n  run B: ...%s...",
			i, ctx(a), ctx(b))
	}

	// A different seed must actually change the journal — otherwise the
	// equality above proves nothing.
	c, _ := runWhyTrace(t, 12)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical journals")
	}
}

// TestDecisionExportValidates: the bytes WriteDecisions emits round-trip
// through the same structural gate aegaeon-trace -mode why applies.
func TestDecisionExportValidates(t *testing.T) {
	raw, rep := runWhyTrace(t, 5)
	var exp decision.Export
	if err := json.Unmarshal(raw, &exp); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if err := exp.Validate(); err != nil {
		t.Fatalf("export fails validation: %v", err)
	}
	if exp.SchemaVersion != decision.SchemaVersion {
		t.Fatalf("schema version %d, want %d", exp.SchemaVersion, decision.SchemaVersion)
	}
	if int(exp.Total) == 0 || len(exp.Chains) == 0 {
		t.Fatal("empty export from a busy run")
	}
	// Every completed request left a chain ending in a terminal record.
	if len(exp.Chains) < rep.Completed {
		t.Fatalf("%d chains for %d completed requests", len(exp.Chains), rep.Completed)
	}
}

// TestDecisionsDisabledByDefault: without Config.Decisions the journal
// accessor is nil and the export refuses, keeping the zero-config path free
// of journaling.
func TestDecisionsDisabledByDefault(t *testing.T) {
	sys, err := New(Config{PrefillGPUs: 1, DecodeGPUs: 1, NumModels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Decisions() != nil {
		t.Fatal("journal present without Config.Decisions")
	}
	if err := sys.WriteDecisions(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteDecisions succeeded on a journal-free system")
	}
}
