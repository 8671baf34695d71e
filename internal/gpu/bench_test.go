package gpu

import (
	"testing"
	"time"

	"aegaeon/internal/sim"
)

func BenchmarkStreamSubmit(b *testing.B) {
	eng := sim.NewEngine(1)
	d := NewDevice(eng, "gpu0")
	s := d.NewStream("s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Submit(Compute, time.Microsecond)
		eng.Run()
	}
}

// BenchmarkDecodeStepChurn models token-level decode scheduling: each step
// is one labelled compute op whose onDone issues the next step. Retired ops
// are reused, so a step allocates nothing.
func BenchmarkDecodeStepChurn(b *testing.B) {
	eng := sim.NewEngine(1)
	s := NewDevice(eng, "gpu0").NewStream("compute")
	info := OpInfo{Kind: OpDecode, Model: 1}
	left := b.N
	var step func()
	step = func() {
		if left > 0 {
			left--
			s.SubmitOp(Compute, time.Millisecond, info, step)
		}
	}
	b.ReportAllocs()
	step()
	eng.Run()
}

func BenchmarkEventFanout(b *testing.B) {
	eng := sim.NewEngine(1)
	d := NewDevice(eng, "gpu0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := d.NewStream("src")
		src.Submit(D2H, time.Microsecond)
		ev := src.Record()
		for j := 0; j < 8; j++ {
			w := d.NewStream("w")
			w.WaitEvent(ev)
			w.Submit(Compute, time.Microsecond)
		}
		eng.Run()
	}
}

// BenchmarkChunkedTransfer runs 48-chunk weight transfers back to back,
// alone and with one 10 ms op joining the engine mid-transfer, and reports
// the kernel events each transfer costs: 2 alone, 4 contended (the yield,
// the competing op's end, then the last-chunk start and the end), where
// submitting each chunk as its own op costs 48 and 49.
func BenchmarkChunkedTransfer(b *testing.B) {
	const chunk = 25 * time.Millisecond
	for _, bc := range []struct {
		name    string
		compete bool
	}{{"uncontended", false}, {"contended", true}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.NewEngine(1)
			d := NewDevice(eng, "gpu0")
			load, kv := d.NewStream("load"), d.NewStream("kv")
			info := OpInfo{Kind: OpLoad, Model: 1}
			submitKV := func() { kv.Submit(H2D, 10*time.Millisecond) }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				load.SubmitChunked(H2D, 48*chunk, chunk, info, nil)
				if bc.compete {
					eng.After(10*chunk+chunk/2, submitKV)
				}
				eng.Run()
			}
			events := eng.Processed()
			if bc.compete {
				events -= uint64(b.N) // the competing op's submission
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/transfer")
		})
	}
}
