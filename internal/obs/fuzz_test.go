package obs

import (
	"bytes"
	"testing"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/sim"
)

// FuzzValidatePerfetto: ValidatePerfetto never panics on arbitrary input,
// and the export of any op sequence validates. The input doubles as an op
// program: each 3-byte group submits one op, choosing its stream and
// engine, its kind (out-of-range kinds included), and a duration of
// 0-255 µs.
func FuzzValidatePerfetto(f *testing.F) {
	var buf bytes.Buffer
	if err := buildCollector(f).PerfettoTrace().Write(&buf, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},` +
		`{"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}]}`)) // partial overlap
	f.Add([]byte(`{"traceEvents":[{"name":"m","ph":"M","pid":1,"tid":1}]}`)) // metadata without a name
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte{0, 1, 10, 4, 4, 0, 2, 8, 255, 5, 9, 3})

	f.Fuzz(func(t *testing.T, in []byte) {
		_ = ValidatePerfetto(bytes.NewReader(in))

		se := sim.NewEngine(1)
		d := gpu.NewDevice(se, "gpu0")
		c := New(Options{})
		c.ObserveDevice(d)
		c.NameModel(1, "m1")
		streams := []*gpu.Stream{d.NewStream("a"), d.NewStream("b")}
		for i := 0; i+2 < len(in); i += 3 {
			s := streams[in[i]/3%2]
			info := gpu.OpInfo{Kind: gpu.OpKind(in[i+1]), Model: 1, Request: "r1"}
			s.SubmitOp(gpu.EngineKind(in[i]%3), time.Duration(in[i+2])*time.Microsecond, info)
		}
		se.Run()
		var out bytes.Buffer
		if err := c.PerfettoTrace().Write(&out, nil); err != nil {
			t.Fatal(err)
		}
		if err := ValidatePerfetto(&out); err != nil {
			t.Fatalf("export of %d ops does not validate: %v", len(in)/3, err)
		}
	})
}
