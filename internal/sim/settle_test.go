package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// points is a Settler over fixed times: it logs each point it settles with
// the clock it saw, and optionally does something while settling.
type points struct {
	name   string
	at     []Time
	log    *[]string
	during func()
}

func (p *points) Due() (Time, bool) {
	if len(p.at) == 0 {
		return 0, false
	}
	return p.at[0], true
}

func (p *points) Settle() {
	*p.log = append(*p.log, fmt.Sprintf("%s@%v", p.name, p.at[0]))
	p.at = p.at[1:]
	if p.during != nil {
		p.during()
	}
}

// TestSettlerOrder checks that points settle before every event at or after
// their time, in time order across settlers (the earlier registered first
// on a tie), with the clock at each point's time, and that a cancelled
// event settles nothing.
func TestSettlerOrder(t *testing.T) {
	const ms = time.Millisecond
	e := NewEngine(1)
	var log []string
	e.AddSettler(&points{name: "a", at: []Time{5 * ms, 10 * ms, 30 * ms}, log: &log})
	e.AddSettler(&points{name: "b", at: []Time{10 * ms, 12 * ms}, log: &log})
	event := func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%v", name, e.Now())) }
	}
	e.At(10*ms, event("x"))
	e.At(20*ms, event("y")).Cancel()
	e.At(40*ms, event("z"))
	e.Run()
	want := []string{"a@5ms", "a@10ms", "b@10ms", "x@10ms", "b@12ms", "a@30ms", "z@40ms"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("order = %v, want %v", log, want)
	}
	if got := e.Processed(); got != 2 {
		t.Errorf("processed %d events, want 2: settling fires none", got)
	}
}

// TestSettlerClock checks that each point settles with the clock at its
// time, and that RunUntil settles the points due by its horizon, and only
// those, before the clock stands there.
func TestSettlerClock(t *testing.T) {
	const ms = time.Millisecond
	e := NewEngine(1)
	var log []string
	p := &points{name: "p", at: []Time{3 * ms, 7 * ms, 8 * ms}, log: &log}
	var clocks []Time
	p.during = func() { clocks = append(clocks, e.Now()) }
	e.AddSettler(p)
	e.RunUntil(7 * ms)
	if want := []Time{3 * ms, 7 * ms}; !reflect.DeepEqual(clocks, want) {
		t.Errorf("clocks while settling = %v, want %v", clocks, want)
	}
	if e.Now() != 7*ms || len(p.at) != 1 {
		t.Errorf("after RunUntil(7ms): clock %v, %d points left; want 7ms, 1", e.Now(), len(p.at))
	}
	e.Step() // no event: nothing settles
	if len(p.at) != 1 {
		t.Errorf("Step with no event settled a point")
	}
	e.RunUntil(9 * ms)
	if len(p.at) != 0 || e.Now() != 9*ms {
		t.Errorf("after RunUntil(9ms): clock %v, %d points left; want 9ms, 0", e.Now(), len(p.at))
	}
}

// TestSettlerMustNotSchedule checks the engine refuses a settler that
// schedules an event or a feed while settling.
func TestSettlerMustNotSchedule(t *testing.T) {
	for name, schedule := range map[string]func(e *Engine){
		"At":   func(e *Engine) { e.After(time.Millisecond, func() {}) },
		"Feed": func(e *Engine) { e.Feed([]Time{e.Now()}, func(int) {}) },
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(1)
			var log []string
			e.AddSettler(&points{name: "p", at: []Time{time.Millisecond}, log: &log, during: func() { schedule(e) }})
			e.At(2*time.Millisecond, func() {})
			defer func() {
				if recover() == nil {
					t.Error("a settler that schedules did not panic")
				}
			}()
			e.Run()
		})
	}
}
