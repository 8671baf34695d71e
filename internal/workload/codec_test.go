package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := PoissonTrace(rng, []string{"a", "b"}, 0.5, 5*time.Minute, ShareGPT())
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip lost requests: %d != %d", len(got), len(orig))
	}
	for i := range orig {
		// Arrival round-trips through float seconds: allow sub-microsecond slack.
		d := got[i].Arrival - orig[i].Arrival
		if d < 0 {
			d = -d
		}
		if d > time.Microsecond ||
			got[i].ID != orig[i].ID ||
			got[i].Model != orig[i].Model ||
			got[i].InputTokens != orig[i].InputTokens ||
			got[i].OutputTokens != orig[i].OutputTokens {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, got[i], orig[i])
		}
	}
}

func TestReadTraceUnordered(t *testing.T) {
	in := `{"id":"x","model":"m","arrival_s":5,"input_tokens":10,"output_tokens":3}
{"id":"","model":"m","arrival_s":1,"input_tokens":10,"output_tokens":3}
`
	got, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Arrival != time.Second || got[1].Arrival != 5*time.Second {
		t.Fatalf("not re-sorted: %+v", got)
	}
	if got[0].ID == "" {
		t.Fatal("missing ID not assigned")
	}
	if got[1].ID != "x" {
		t.Fatal("existing ID not preserved")
	}
}

func TestReadTraceValidation(t *testing.T) {
	cases := []string{
		`{"model":"","arrival_s":1,"input_tokens":1,"output_tokens":1}`,
		`{"model":"m","arrival_s":-1,"input_tokens":1,"output_tokens":1}`,
		`{"model":"m","arrival_s":1e10,"input_tokens":1,"output_tokens":1}`,
		`{"model":"m","arrival_s":1,"input_tokens":-1,"output_tokens":1}`,
		`{"model":"m","arrival_s":1,"input_tokens":1,"output_tokens":0}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("invalid record accepted: %s", c)
		}
	}
}

func TestReadTraceEmpty(t *testing.T) {
	got, err := ReadTrace(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace: %v, %d", err, len(got))
	}
}
