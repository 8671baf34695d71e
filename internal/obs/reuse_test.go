package obs

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// lifecycle drives one request through every collector call a switch-heavy
// decode turn makes: arrival, prefill and its first token, a switch that
// stalls the request (stages and victims), the turn with a token batch, and
// completion. Request ids cycle through a table built once.
type lifecycle struct {
	c       *Collector
	ids     []string
	i       int
	hs      []Handle
	victims []string
}

func newLifecycle(c *Collector) *lifecycle {
	l := &lifecycle{c: c, hs: make([]Handle, 1), victims: make([]string, 1)}
	for i := 0; i < 3*maxRequests; i++ {
		l.ids = append(l.ids, fmt.Sprintf("r%d", i))
	}
	c.NameModel(1, "m")
	return l
}

func (l *lifecycle) run() {
	c, id, at := l.c, l.ids[l.i%len(l.ids)], ms(10*l.i)
	l.i++
	h := c.RequestArrived(id, "m", at)
	c.PrefillStart("p0", id, h, at)
	c.Token(h, at+1)
	c.PrefillDone("p0", id, h, at+1)
	l.switchCycle(id, at+2)
	l.hs[0] = h
	c.TurnStart("d0", 1, at+4, time.Second, l.hs)
	c.TokenBatch("d0", 1, at+5, l.hs)
	c.TurnEnd("d0", 1, at+6)
	c.RequestDone(id, at+6)
}

// switchCycle is one switch on d0 whose only victim is id.
func (l *lifecycle) switchCycle(id string, at time.Duration) {
	c := l.c
	c.BeginSwitch("d0", "m1", "m2", at, false)
	c.SwitchStage("d0", "reinit", at, at+1)
	c.SwitchStage("d0", "load", at+1, at+2)
	l.victims[0] = id
	c.SwitchVictims("d0", l.victims)
	c.EndSwitch("d0", at+2)
}

// TestCollectorSteadyStateAllocs: once the timeline table and the switch
// ring are full, a request's whole lifecycle, a switch included, reuses a
// recycled timeline and switch record and allocates nothing.
func TestCollectorSteadyStateAllocs(t *testing.T) {
	c := New(Options{})
	l := newLifecycle(c)
	for i := 0; i < 2*maxRequests; i++ {
		l.run()
	}
	if sws, total := c.Switches(); len(sws) != maxSwitches || total <= maxSwitches {
		t.Fatalf("warm-up keeps %d of %d switches, want a full ring of %d", len(sws), total, maxSwitches)
	}
	if n := testing.AllocsPerRun(1000, l.run); n != 0 {
		t.Fatalf("a request's lifecycle allocated %.2f times on a warmed collector", n)
	}
	// The last request's recycled timeline holds its own lifecycle only.
	tl, _ := c.Request(l.ids[(l.i-1)%len(l.ids)])
	var names []string
	for _, sp := range tl.Spans {
		names = append(names, sp.Name)
	}
	if want := "[queue-wait prefill decode-wait switch-stall decode-turn decode-wait]"; len(tl.Tokens) != 2 ||
		tl.SwitchStall != 2 || fmt.Sprint(names) != want {
		t.Fatalf("last timeline: %d tokens, stall %v, spans %v; want 2, 2ns, %s",
			len(tl.Tokens), tl.SwitchStall, names, want)
	}
}

// BenchmarkSwitchRecord is one switch (two stages, one victim) on a
// collector whose switch ring is full, so every record is a recycled one.
func BenchmarkSwitchRecord(b *testing.B) {
	c := New(Options{})
	l := newLifecycle(c)
	for i := 0; i < 2*maxSwitches; i++ {
		l.switchCycle(l.ids[i%len(l.ids)], ms(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.switchCycle(l.ids[i%len(l.ids)], ms(i))
	}
}

// TestSwitchesDoNotAliasRecycledRecords: what Switches returned stays as it
// was after the ring has reused every record it was copied from.
func TestSwitchesDoNotAliasRecycledRecords(t *testing.T) {
	c := New(Options{})
	l := newLifecycle(c)
	for i := 0; i < maxSwitches; i++ {
		l.switchCycle(l.ids[i], ms(i))
	}
	before, _ := c.Switches()
	want := fmt.Sprint(before)
	for i := 0; i < maxSwitches; i++ {
		c.BeginSwitch("d1", "x", "y", ms(maxSwitches+i), true)
		c.SwitchStage("d1", "gc-pause", 0, 1)
		c.SwitchVictims("d1", []string{"v1", "v2", "v3"})
		c.EndSwitch("d1", ms(maxSwitches+i+1))
	}
	if got := fmt.Sprint(before); got != want {
		t.Fatal("a returned switch record changed when its ring slot was reused")
	}
	after, _ := c.Switches()
	if reflect.DeepEqual(before, after) || after[0].Instance != "d1" || len(after[0].Victims) != 3 {
		t.Fatalf("ring did not rotate onto the new switches: %+v", after[0])
	}
}

// TestInFlightSwitchKeepsItsRecord: a switch still open when the ring comes
// back round to its slot keeps its own record, so its stages and stall land
// on it and not on the switch that took the slot.
func TestInFlightSwitchKeepsItsRecord(t *testing.T) {
	c := New(Options{})
	c.BeginSwitch("slow", "a", "b", 0, false)
	for i := 0; i < maxSwitches; i++ {
		c.BeginSwitch("d0", "x", "y", ms(i), false)
		c.EndSwitch("d0", ms(i)+1)
	}
	c.SwitchStage("slow", "load", 0, ms(5))
	c.EndSwitch("slow", ms(5))
	sws, _ := c.Switches()
	for _, sw := range sws {
		if sw.Instance != "d0" || len(sw.Stages) != 0 {
			t.Fatalf("the slow switch's stage or record leaked into the ring: %+v", sw)
		}
	}
}
