package core

import (
	"slices"

	"aegaeon/internal/sim"
)

// runSettler is the system's sim.Settler (DESIGN.md §6, decode runs): it
// settles the step boundaries of every decode run in flight, earliest first
// across instances and the lower instance first on a tie, so the kernel
// fires one event per run while every event, read and observer call sees
// the state the one-step loop leaves.
//
// Instances with a run of more than one step in flight sit in a min-heap
// keyed by their next boundary. A key only ever lags its instance's real
// next boundary: settling moves that later, and a cut or the run's end
// removes it (and a later run of the instance starts after it). So the heap
// is repaired lazily: Due re-keys or drops the top until its key is real.
type runSettler struct {
	heap []runKey
}

type runKey struct {
	at  sim.Time
	idx int // d.idx, the tie-break
	d   *decodeInstance
}

func (k runKey) before(o runKey) bool {
	return k.at < o.at || (k.at == o.at && k.idx < o.idx)
}

// add files d, whose run of more than one step has just started. An entry
// d still has from an earlier run is re-keyed when it reaches the top.
func (s *runSettler) add(d *decodeInstance) {
	if d.inSettler {
		return
	}
	d.inSettler = true
	s.heap = append(s.heap, runKey{d.run.Next, d.idx, d})
	for i := len(s.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.heap[i].before(s.heap[p]) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

// down sifts the entry at i down to its place.
func (s *runSettler) down(i int) {
	h := s.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Due returns the earliest unsettled step boundary of any run in flight.
func (s *runSettler) Due() (sim.Time, bool) {
	for len(s.heap) > 0 {
		top := &s.heap[0]
		t, ok := top.d.due()
		switch {
		case !ok:
			top.d.inSettler = false
			n := len(s.heap) - 1
			s.heap[0], s.heap[n] = s.heap[n], runKey{}
			s.heap = s.heap[:n]
			s.down(0)
		case t != top.at:
			top.at = t
			s.down(0)
		default:
			return t, true
		}
	}
	return 0, false
}

// Settle settles the boundary Due returned.
func (s *runSettler) Settle() { s.heap[0].d.settleStep() }

// cutFor cuts the run r steps in, if any: r is about to go terminal, so
// the steps after the one in flight go without it.
func (s *runSettler) cutFor(r *Request) {
	for _, k := range s.heap {
		if slices.Contains(k.d.runReqs, r) {
			k.d.cut()
		}
	}
}
