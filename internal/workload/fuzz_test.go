package workload

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzReadTrace: ReadTrace never panics, and every trace it accepts reads
// back the same through WriteTrace. Arrivals travel as float seconds, so
// they may move by float rounding and nothing more.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	rng := rand.New(rand.NewSource(1))
	if err := WriteTrace(&buf, PoissonTrace(rng, []string{"a", "b"}, 0.5, 20*time.Second, ShareGPT())); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	buf.Reset()
	sessions := MultiTurnTrace(rand.New(rand.NewSource(10)), []string{"m0"}, 0.05, time.Minute,
		ShareGPT(), MultiTurnConfig{SystemPromptTokens: 128})
	if err := WriteTrace(&buf, sessions); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"id":"x","model":"m","arrival_s":5,"input_tokens":10,"output_tokens":3,"priority":"high"}
{"id":"","model":"m","arrival_s":1,"input_tokens":10,"output_tokens":3}
`)
	f.Add(`{"model":"m","arrival_s":1,"input_tokens":1,"output_tokens":1,"turn":3}`) // turn without a session
	f.Add(`{"model":"m","arrival_s":1,"input_tokens":-1,"output_tokens":1}`)
	f.Add(`{"model":"m","arrival_s":1e300,"input_tokens":1,"output_tokens":1}`) // overflows a duration
	f.Add(`not json`)

	f.Fuzz(func(t *testing.T, in string) {
		first, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, first); err != nil {
			t.Fatalf("WriteTrace of an accepted trace: %v", err)
		}
		back, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("accepted trace re-reads with error: %v\nwritten: %s", err, out.String())
		}
		if len(back) != len(first) {
			t.Fatalf("round trip kept %d of %d requests", len(back), len(first))
		}
		for i := range first {
			a, b := first[i], back[i]
			d := b.Arrival - a.Arrival
			if d < 0 {
				d = -d
			}
			if d > time.Microsecond+a.Arrival/1e12 {
				t.Fatalf("request %d arrival moved from %v to %v", i, a.Arrival, b.Arrival)
			}
			b.Arrival = a.Arrival
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("request %d diverged\nwant: %#v\ngot:  %#v", i, a, b)
			}
		}
	})
}
