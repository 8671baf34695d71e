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
