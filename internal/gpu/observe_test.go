package gpu

import (
	"testing"
	"time"
)

func TestUtilizationClamped(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	s.Submit(Compute, 100*time.Millisecond)
	eng.Run() // now = 100ms, busy 100ms

	// A busyAtSince snapshot predating the window makes the raw ratio
	// exceed 1; the result must clamp.
	if u := d.Utilization(Compute, 90*time.Millisecond, 0); u != 1 {
		t.Fatalf("over-busy utilization = %v, want clamped 1", u)
	}
	// A snapshot exceeding current busy time would go negative; clamp to 0.
	if u := d.Utilization(Compute, 0, 200*time.Millisecond); u != 0 {
		t.Fatalf("negative utilization = %v, want clamped 0", u)
	}
	// Empty or inverted windows report 0.
	if u := d.Utilization(Compute, eng.Now(), 0); u != 0 {
		t.Fatalf("zero-window utilization = %v", u)
	}
	if u := d.Utilization(Compute, eng.Now()+time.Second, 0); u != 0 {
		t.Fatalf("future-window utilization = %v", u)
	}
	// The honest full-window ratio is exactly 1 here.
	if u := d.Utilization(Compute, 0, 0); u != 1 {
		t.Fatalf("full-window utilization = %v, want 1", u)
	}
}

// TestObserverSeesSerializedEngineOps submits interleaved work from several
// streams across engines and checks the per-engine op records the observer
// receives: complete, labeled, and non-overlapping within each engine (the
// FIFO executor's exclusivity invariant the device timelines rely on).
func TestObserverSeesSerializedEngineOps(t *testing.T) {
	eng, d := newDev(1)
	byEngine := map[EngineKind][]OpRecord{}
	d.Observe(func(dev *Device, r OpRecord) {
		if dev != d {
			t.Errorf("observer got device %q", dev.Name)
		}
		byEngine[r.Engine] = append(byEngine[r.Engine], r)
	})
	s1 := d.NewStream("s1")
	s2 := d.NewStream("s2")
	for i := 0; i < 5; i++ {
		s1.SubmitOp(Compute, 7*time.Millisecond, OpInfo{Kind: OpPrefill, Model: 1})
		s2.SubmitOp(Compute, 3*time.Millisecond, OpInfo{Kind: OpDecode, Model: 2})
		s1.SubmitOp(H2D, 4*time.Millisecond, OpInfo{Kind: OpKVIn, Request: "r1"})
		s2.SubmitOp(D2H, 2*time.Millisecond, OpInfo{Kind: OpKVOut})
	}
	eng.Run()

	if n := len(byEngine[Compute]); n != 10 {
		t.Fatalf("compute ops observed = %d, want 10", n)
	}
	if n := len(byEngine[H2D]); n != 5 {
		t.Fatalf("h2d ops observed = %d, want 5", n)
	}
	if n := len(byEngine[D2H]); n != 5 {
		t.Fatalf("d2h ops observed = %d, want 5", n)
	}
	for k, recs := range byEngine {
		for i, r := range recs {
			if r.End <= r.Start {
				t.Fatalf("%v op %d has empty interval %v..%v", k, i, r.Start, r.End)
			}
			if r.Info.Kind == OpUnlabelled {
				t.Fatalf("%v op %d lost its label", k, i)
			}
			if i > 0 && r.Start < recs[i-1].End {
				t.Fatalf("%v ops overlap: [%v,%v] then [%v,%v]",
					k, recs[i-1].Start, recs[i-1].End, r.Start, r.End)
			}
		}
	}
	// Attribution survives the trip through the executor.
	if got := byEngine[H2D][0].Info.Request; got != "r1" {
		t.Fatalf("h2d op request label = %q", got)
	}
}

func TestObserveNilDisablesCapture(t *testing.T) {
	eng, d := newDev(1)
	n := 0
	d.Observe(func(*Device, OpRecord) { n++ })
	d.Observe(nil)
	d.NewStream("s").Submit(Compute, time.Millisecond)
	eng.Run()
	if n != 0 {
		t.Fatalf("disabled observer fired %d times", n)
	}
}
