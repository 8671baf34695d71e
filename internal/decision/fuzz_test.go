package decision

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzValidateDecisions: Validate never panics on a journal export decoded
// from arbitrary JSON, null included. The corpus starts from a real export,
// which validates.
func FuzzValidateDecisions(f *testing.F) {
	j := New(Options{})
	j.Record(adm("r1", 0))
	j.Record(Record{At: 1, Kind: KindPrefillRouting, Request: "r1", Outcome: "prefill0",
		Candidates: []Candidate{
			{Name: "prefill0", Score: 1, Chosen: true, Terms: []Term{NsTerm("load", time.Second)}},
			{Name: "prefill1", Score: 2, Excluded: true},
		}})
	j.Record(term("r1", OutcomeDone, 2))
	j.Record(adm("r2", 3))
	j.Record(Record{At: 4, Kind: KindShed, Request: "r2", Outcome: "doomed_on_arrival",
		Inputs: []Term{NsTerm("estimate", 9*time.Second)}})
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	var seed *Export
	if err := json.Unmarshal(buf.Bytes(), &seed); err != nil {
		f.Fatal(err)
	}
	if err := seed.Validate(); err != nil {
		f.Fatalf("real export does not validate: %v", err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`null`))
	f.Add([]byte(`{"schema_version":1,"records":[{"seq":2,"kind":"x","outcome":"y"},{"seq":1,"kind":"x","outcome":"y"}]}`))
	f.Add([]byte(`{"schema_version":1,"chains":[{"request":"r","records":[]}]}`))

	f.Fuzz(func(t *testing.T, in []byte) {
		var e *Export
		if json.Unmarshal(in, &e) != nil {
			return
		}
		_ = e.Validate()
	})
}
