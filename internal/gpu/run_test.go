package gpu

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"aegaeon/internal/sim"
)

const ms = time.Millisecond

// runProbe records what a device reports while a test drives runs on it:
// op records, compute busy edges and completions, each with its instant.
type runProbe struct {
	eng     *sim.Engine
	records []OpRecord
	edges   []string
	done    []string
}

func newRunProbe() (*runProbe, *Device) {
	eng, d := newDev(1)
	p := &runProbe{eng: eng}
	d.Observe(func(_ *Device, r OpRecord) { p.records = append(p.records, r) })
	d.ObserveBusy(func(_ *Device, k EngineKind, _ OpInfo, busy bool) {
		if k == Compute {
			p.edges = append(p.edges, fmt.Sprintf("%v@%v", busy, eng.Now()))
		}
	})
	return p, d
}

func (p *runProbe) finish(name string) func() {
	return func() { p.done = append(p.done, fmt.Sprintf("%s@%v", name, p.eng.Now())) }
}

var decode = OpInfo{Kind: OpDecode}

func rec(info OpInfo, start, end time.Duration) OpRecord {
	return OpRecord{Engine: Compute, Info: info, Start: start, End: end}
}

// steps are the step ends of the runs these tests drive.
var steps = []sim.Time{10 * ms, 25 * ms, 45 * ms}

// settleAt settles the run on s at each of steps' boundaries before until,
// and at until itself when at is set, as a settler would.
func settleAt(eng *sim.Engine, s *Stream, until sim.Time, at bool) {
	for i, end := range steps[:len(steps)-1] {
		if end < until || (end == until && at) {
			next := steps[i+1]
			eng.At(end, func() { s.SettleStep(next) })
		}
	}
}

// TestRunSteps runs three steps as one op, settling the first two at their
// ends, and checks the device reports them as three ops: one record per
// step, each delivered when it is settled or the op retires, one busy pair
// for the whole run and one kernel event.
func TestRunSteps(t *testing.T) {
	p, d := newRunProbe()
	s := d.NewStream("s")
	r := &Run{Next: steps[0], End: steps[2]}
	s.SubmitRun(Compute, r, decode, p.finish("run"))
	var seen []int
	for i, end := range steps[:2] {
		next := steps[i+1]
		p.eng.At(end, func() {
			s.SettleStep(next)
			seen = append(seen, len(p.records))
		})
	}
	before := p.eng.Processed()
	p.eng.Run()
	if want := []int{1, 2}; !reflect.DeepEqual(seen, want) {
		t.Errorf("records delivered by each settle = %v, want %v", seen, want)
	}
	want := []OpRecord{rec(decode, 0, 10*ms), rec(decode, 10*ms, 25*ms), rec(decode, 25*ms, 45*ms)}
	if !reflect.DeepEqual(p.records, want) {
		t.Errorf("records = %v, want %v", p.records, want)
	}
	if want := []string{"true@0s", "false@45ms"}; !reflect.DeepEqual(p.edges, want) {
		t.Errorf("busy edges = %v, want %v", p.edges, want)
	}
	if want := []string{"run@45ms"}; !reflect.DeepEqual(p.done, want) {
		t.Errorf("completions = %v, want %v", p.done, want)
	}
	// The two settling events and the run's end.
	if got := p.eng.Processed() - before; got != 3 {
		t.Errorf("%d events, want 3", got)
	}
	if *r != (Run{Next: 45 * ms, End: 45 * ms}) || d.BusyTime(Compute) != 45*ms {
		t.Errorf("run %+v, busy %v; want both ends at 45ms, 45ms busy", *r, d.BusyTime(Compute))
	}
}

// TestRunCut checks every way a run is cut at the end of its step in
// flight: another stream's op joining the engine, an op or a Record
// queued behind it on its own stream, and CutRun, at a step's middle and
// at a settled boundary's instant, where the step starting there is the
// one in flight. The run then retires at the cut as if planned to end
// there, the joined work starts there, and the cancelled completion fires
// nothing.
func TestRunCut(t *testing.T) {
	prefill := OpInfo{Kind: OpPrefill}
	for _, c := range []struct {
		name  string
		at    sim.Time
		act   func(own, other *Stream, p *runProbe)
		end   sim.Time
		extra []OpRecord
		done  []string
	}{
		{"other stream mid-step", 15 * ms, func(_, o *Stream, p *runProbe) {
			o.SubmitOp(Compute, 5*ms, prefill, p.finish("prefill"))
		}, 25 * ms, []OpRecord{rec(prefill, 25*ms, 30*ms)}, []string{"run@25ms", "prefill@30ms"}},
		{"own stream mid-step", 15 * ms, func(s, _ *Stream, p *runProbe) {
			s.SubmitOp(Compute, 5*ms, prefill, p.finish("prefill"))
		}, 25 * ms, []OpRecord{rec(prefill, 25*ms, 30*ms)}, []string{"run@25ms", "prefill@30ms"}},
		{"record behind it", 15 * ms, func(s, _ *Stream, p *runProbe) {
			s.Record().OnComplete(p.finish("record"))
		}, 25 * ms, nil, []string{"run@25ms", "record@25ms"}},
		{"CutRun mid-step", 5 * ms, func(s, _ *Stream, _ *runProbe) { s.CutRun() },
			10 * ms, nil, []string{"run@10ms"}},
		{"CutRun at a boundary", 10 * ms, func(s, _ *Stream, _ *runProbe) { s.CutRun() },
			25 * ms, nil, []string{"run@25ms"}},
		{"CutRun in the last step", 30 * ms, func(s, _ *Stream, _ *runProbe) { s.CutRun() },
			45 * ms, nil, []string{"run@45ms"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, d := newRunProbe()
			s, other := d.NewStream("s"), d.NewStream("other")
			r := &Run{Next: steps[0], End: steps[2]}
			s.SubmitRun(Compute, r, decode, p.finish("run"))
			settleAt(p.eng, s, c.at, true)
			p.eng.At(c.at, func() { c.act(s, other, p) })
			p.eng.Run()
			want := []OpRecord{rec(decode, 0, 10*ms), rec(decode, 10*ms, 25*ms), rec(decode, 25*ms, 45*ms)}
			n := 0
			for n < len(want) && want[n].End <= c.end {
				n++
			}
			want = append(want[:n], c.extra...)
			if !reflect.DeepEqual(p.records, want) {
				t.Errorf("records = %v, want %v", p.records, want)
			}
			if r.End != c.end {
				t.Errorf("run planned to end at %v after the cut, want %v", r.End, c.end)
			}
			if !reflect.DeepEqual(p.done, c.done) {
				t.Errorf("completions = %v, want %v", p.done, c.done)
			}
		})
	}
}

// TestRunRejects checks the calls the stream refuses: a run on a busy
// stream or engine or with ends out of order, a settle with no run
// executing, off its boundary, of the last step or to a next end out of
// order, and a cut or a retirement with a boundary left unsettled.
func TestRunRejects(t *testing.T) {
	run := func() *Run { return &Run{Next: 5 * ms, End: 9 * ms} }
	for _, c := range []struct {
		name string
		call func(eng *sim.Engine, d *Device) func()
	}{
		{"busy engine", func(_ *sim.Engine, d *Device) func() {
			d.NewStream("first").Submit(Compute, 10*ms)
			return func() { d.NewStream("s").SubmitRun(Compute, run(), decode, nil) }
		}},
		{"busy stream", func(_ *sim.Engine, d *Device) func() {
			s := d.NewStream("s")
			s.Submit(H2D, 10*ms)
			return func() { s.SubmitRun(Compute, run(), decode, nil) }
		}},
		{"first step ends now", func(_ *sim.Engine, d *Device) func() {
			return func() { d.NewStream("s").SubmitRun(Compute, &Run{End: 5 * ms}, decode, nil) }
		}},
		{"end before the first step's", func(_ *sim.Engine, d *Device) func() {
			return func() { d.NewStream("s").SubmitRun(Compute, &Run{Next: 5 * ms, End: 4 * ms}, decode, nil) }
		}},
		{"settle with no run", func(_ *sim.Engine, d *Device) func() {
			s := d.NewStream("s")
			s.Submit(Compute, 10*ms)
			return func() { s.SettleStep(9 * ms) }
		}},
		{"settle before the step ends", func(_ *sim.Engine, d *Device) func() {
			s := d.NewStream("s")
			s.SubmitRun(Compute, run(), decode, nil)
			return func() { s.SettleStep(9 * ms) }
		}},
		{"settle past the run's end", func(eng *sim.Engine, d *Device) func() {
			s := d.NewStream("s")
			s.SubmitRun(Compute, run(), decode, nil)
			eng.At(5*ms, func() {})
			eng.Step()
			return func() { s.SettleStep(10 * ms) }
		}},
		{"settle the last step", func(eng *sim.Engine, d *Device) func() {
			s := d.NewStream("s")
			s.SubmitRun(Compute, run(), decode, nil)
			eng.At(5*ms, func() { s.SettleStep(9 * ms) })
			eng.At(7*ms, func() {})
			eng.Step()
			eng.Step()
			return func() { s.SettleStep(9 * ms) }
		}},
		{"cut with a boundary unsettled", func(eng *sim.Engine, d *Device) func() {
			s := d.NewStream("s")
			s.SubmitRun(Compute, run(), decode, nil)
			eng.At(6*ms, func() {})
			eng.Step()
			return s.CutRun
		}},
		{"retire with a boundary unsettled", func(eng *sim.Engine, d *Device) func() {
			d.NewStream("s").SubmitRun(Compute, run(), decode, nil)
			return eng.Run
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, d := newDev(1)
			f := c.call(eng, d)
			defer func() {
				if recover() == nil {
					t.Error("the call did not panic")
				}
			}()
			f()
		})
	}
}
