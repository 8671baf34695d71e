package decision

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/sim"
)

func adm(id string, at sim.Time) Record {
	return Record{At: at, Kind: KindAdmission, Request: id, Outcome: "accept",
		Inputs: []Term{NsTerm("ttft_estimate", 5*time.Millisecond)}}
}

func term(id string, outcome string, at sim.Time) Record {
	return Record{At: at, Kind: KindTerminal, Request: id, Outcome: outcome}
}

func TestChainAndCoverage(t *testing.T) {
	j := New(Options{})
	j.Record(adm("r1", 0))
	j.Record(Record{At: 1, Kind: KindPrefillRouting, Request: "r1", Outcome: "prefill0",
		Candidates: []Candidate{
			{Name: "prefill0", Score: 1, Chosen: true, Terms: []Term{NsTerm("load", time.Second)}},
			{Name: "prefill1", Score: 2},
		}})
	j.Record(term("r1", OutcomeDone, 2))

	j.Record(adm("r2", 3))
	j.Record(Record{At: 4, Kind: KindShed, Request: "r2", Outcome: "doomed_on_arrival",
		Inputs: []Term{NsTerm("estimate", 9*time.Second)}})
	j.Record(term("r2", OutcomeFailed, 5))

	if got := len(j.Chain("r1")); got != 3 {
		t.Fatalf("chain r1 length = %d, want 3", got)
	}
	v := j.CheckCoverage([]RequestState{{"r1", OutcomeDone}, {"r2", OutcomeFailed}})
	if len(v) != 0 {
		t.Fatalf("coverage violations: %v", v)
	}

	// Missing chain, wrong tail, and mismatched outcome all surface.
	v = j.CheckCoverage([]RequestState{{"r3", OutcomeDone}})
	if len(v) != 1 || !strings.Contains(v[0], "no chain") {
		t.Fatalf("want one no-chain violation, got %v", v)
	}
	v = j.CheckCoverage([]RequestState{{"r1", OutcomeAborted}})
	if len(v) != 1 || !strings.Contains(v[0], "terminal record says done") {
		t.Fatalf("want outcome-mismatch violation, got %v", v)
	}
}

func TestEvidenceRequired(t *testing.T) {
	j := New(Options{})
	j.Record(Record{At: 0, Kind: KindShed, Request: "r1", Outcome: "doomed_in_queue"})
	v := j.CheckCoverage(nil)
	if len(v) != 1 || !strings.Contains(v[0], "no evidence terms") {
		t.Fatalf("want evidence violation, got %v", v)
	}
}

func TestRingBoundAndFilter(t *testing.T) {
	j := New(Options{})
	const n = maxRecords + 6
	for i := 0; i < n; i++ {
		kind := KindSwitch
		if i%2 == 0 {
			kind = KindKVEviction
		}
		j.Record(Record{At: sim.Time(i), Kind: kind, Outcome: "x",
			Inputs: []Term{{Name: "i", Value: float64(i)}}})
	}
	if j.Total() != n {
		t.Fatalf("total = %d, want %d", j.Total(), n)
	}
	recent := j.Recent(0, "")
	if len(recent) != maxRecords {
		t.Fatalf("retained = %d, want %d", len(recent), maxRecords)
	}
	if recent[0].Seq != n-maxRecords+1 {
		t.Fatalf("oldest retained seq = %d, want %d", recent[0].Seq, n-maxRecords+1)
	}
	for i := 1; i < len(recent); i++ {
		if recent[i].Seq <= recent[i-1].Seq {
			t.Fatalf("recent not in seq order: %v", recent)
		}
	}
	sw := j.Recent(0, KindSwitch)
	for _, r := range sw {
		if r.Kind != KindSwitch {
			t.Fatalf("filter leaked kind %s", r.Kind)
		}
	}
	if got := j.Recent(1, ""); len(got) != 1 || got[0].Seq != recent[len(recent)-1].Seq {
		t.Fatalf("Recent(1) = %v, want newest record", got)
	}
}

func TestChainHeadSurvivesCap(t *testing.T) {
	j := New(Options{})
	j.Record(adm("r1", 0))
	for i := 0; i < maxPerChain+16; i++ {
		j.Record(Record{At: sim.Time(i + 1), Kind: KindPrefillRouting, Request: "r1", Outcome: "p0"})
	}
	j.Record(term("r1", OutcomeDone, maxPerChain+100))
	chain := j.Chain("r1")
	if len(chain) != maxPerChain {
		t.Fatalf("chain length = %d, want %d", len(chain), maxPerChain)
	}
	if chain[0].Kind != KindAdmission {
		t.Fatalf("chain head = %s, want admission", chain[0].Kind)
	}
	if chain[len(chain)-1].Kind != KindTerminal {
		t.Fatalf("chain tail = %s, want terminal", chain[len(chain)-1].Kind)
	}
	if v := j.CheckCoverage([]RequestState{{"r1", OutcomeDone}}); len(v) != 0 {
		t.Fatalf("capped chain fails coverage: %v", v)
	}
}

// TestChainIsACopy: a chain returned by Chain does not alias the journal's
// chain, which later records append to and, once the chain is at its cap,
// shift in place.
func TestChainIsACopy(t *testing.T) {
	j := New(Options{})
	j.Record(adm("r1", 0))
	for i := 0; i < maxPerChain-1; i++ {
		j.Record(Record{At: sim.Time(i + 1), Kind: KindPrefillRouting, Request: "r1", Outcome: "p0"})
	}
	j.Chain("r1")[1].Outcome = "changed"
	got := j.Chain("r1")
	if got[1].Outcome != "p0" {
		t.Fatal("writing a returned chain changed the journal's chain")
	}
	want := append([]Record(nil), got...)
	for i := 0; i < 5; i++ {
		j.Record(Record{At: sim.Time(maxPerChain + i), Kind: KindDecodePlacement, Request: "r1", Outcome: "d0"})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("later records changed a returned chain:\n got %+v\nwant %+v", got, want)
	}
}

func TestChainEviction(t *testing.T) {
	j := New(Options{})
	for i := 0; i <= maxRequests; i++ {
		j.Record(adm(fmt.Sprintf("r%d", i), sim.Time(i)))
	}
	if j.Chain("r0") != nil {
		t.Fatal("oldest chain not evicted")
	}
	if j.Chain("r1") == nil {
		t.Fatal("second-oldest chain evicted")
	}
	if j.TrackedRequests() != maxRequests {
		t.Fatalf("tracked = %d, want %d", j.TrackedRequests(), maxRequests)
	}
}

func TestLinkedRequests(t *testing.T) {
	j := New(Options{})
	j.Record(adm("v1", 0))
	j.Record(Record{At: 1, Kind: KindSwitch, Instance: "decode0", Model: "m2",
		Outcome: "m2", Requests: []string{"v1", "v2"}})
	if len(j.Chain("v1")) != 2 {
		t.Fatalf("victim v1 chain = %v", j.Chain("v1"))
	}
	if len(j.Chain("v2")) != 1 {
		t.Fatalf("victim v2 chain = %v", j.Chain("v2"))
	}
}

func TestCountsSorted(t *testing.T) {
	j := New(Options{})
	j.Record(Record{Kind: KindSwitch, Outcome: "m2"})
	j.Record(Record{Kind: KindAdmission, Outcome: "reject"})
	j.Record(Record{Kind: KindAdmission, Outcome: "accept"})
	j.Record(Record{Kind: KindAdmission, Outcome: "accept"})
	c := j.Counts()
	if len(c) != 3 {
		t.Fatalf("counts = %v", c)
	}
	if c[0].Kind != KindAdmission || c[0].Outcome != "accept" || c[0].N != 2 {
		t.Fatalf("first count = %+v", c[0])
	}
	for i := 1; i < len(c); i++ {
		if c[i].Kind < c[i-1].Kind ||
			(c[i].Kind == c[i-1].Kind && c[i].Outcome <= c[i-1].Outcome) {
			t.Fatalf("counts not sorted: %v", c)
		}
	}
}

func TestExportRoundTripAndValidate(t *testing.T) {
	j := New(Options{})
	j.Record(adm("r1", 0))
	j.Record(term("r1", OutcomeDone, 7))
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Total != 2 || len(e.Records) != 2 || len(e.Chains) != 1 {
		t.Fatalf("export = total %d, %d records, %d chains", e.Total, len(e.Records), len(e.Chains))
	}
	if e.Chains[0].Request != "r1" || len(e.Chains[0].Records) != 2 {
		t.Fatalf("chain export = %+v", e.Chains[0])
	}

	bad := e
	bad.SchemaVersion = 99
	if bad.Validate() == nil {
		t.Fatal("schema mismatch not caught")
	}
	bad = e
	bad.Records = append([]Record(nil), e.Records...)
	bad.Records[1].Seq = bad.Records[0].Seq
	if bad.Validate() == nil {
		t.Fatal("out-of-order seq not caught")
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	build := func() *Journal {
		j := New(Options{})
		j.Record(adm("r2", 0))
		j.Record(adm("r1", 1))
		j.Record(Record{At: 2, Kind: KindPrefillRouting, Request: "r1", Outcome: "p0",
			Candidates: []Candidate{{Name: "p0", Chosen: true}, {Name: "p1", Score: 3}}})
		j.Record(term("r1", OutcomeDone, 3))
		j.Record(term("r2", OutcomeFailed, 4))
		return j
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical journals serialized differently")
	}
}

func TestNilJournalSafe(t *testing.T) {
	var j *Journal
	j.Record(adm("r1", 0))
	if j.Chain("r1") != nil || j.Recent(5, "") != nil || j.Counts() != nil {
		t.Fatal("nil journal returned data")
	}
	if j.Total() != 0 || j.TrackedRequests() != 0 {
		t.Fatal("nil journal not inert")
	}
	if v := j.CheckCoverage([]RequestState{{"r1", OutcomeDone}}); v != nil {
		t.Fatalf("nil journal audited: %v", v)
	}
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDisabledPath proves the off path is allocation-free: call sites
// nil-check the journal before building record slices, so a disabled journal
// costs one pointer comparison. The benchmark mirrors a real call site
// (guard, then a record with inputs and candidates inside the guard).
func BenchmarkDisabledPath(b *testing.B) {
	var j *Journal
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if j != nil {
			j.Record(Record{
				At: sim.Time(i), Kind: KindPrefillRouting, Request: "r", Outcome: "p0",
				Inputs:     []Term{NsTerm("load", time.Second)},
				Candidates: []Candidate{{Name: "p0", Chosen: true}},
			})
		}
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	var j *Journal
	allocs := testing.AllocsPerRun(1000, func() {
		if j != nil {
			j.Record(Record{Kind: KindAdmission, Outcome: "accept"})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op", allocs)
	}
}
