package prefixcache

import (
	"container/heap"
	"fmt"
)

// heapSlot is an entry's place in one victim heap. The heap updates at
// whenever it moves a slot, so a changed entry is fixed or removed in
// O(log n) without a search.
type heapSlot struct {
	e  *entry
	at int // 1 + index in the heap; 0 when not in it
}

// victimHeap is an indexed min-heap of one tier's eviction candidates under
// the eviction order. The order is total, so the minimum is exactly the
// entry a scan of every candidate would pick.
type victimHeap struct {
	slots []*heapSlot
}

// less is the eviction total order: least recently used first, then model
// and hash so ties never fall back to map iteration order.
func less(a, b *entry) bool {
	if a.lastUse != b.lastUse {
		return a.lastUse < b.lastUse
	}
	if a.model != b.model {
		return a.model < b.model
	}
	return a.hash < b.hash
}

func (h *victimHeap) Len() int           { return len(h.slots) }
func (h *victimHeap) Less(i, j int) bool { return less(h.slots[i].e, h.slots[j].e) }

func (h *victimHeap) Swap(i, j int) {
	h.slots[i], h.slots[j] = h.slots[j], h.slots[i]
	h.slots[i].at, h.slots[j].at = i+1, j+1
}

func (h *victimHeap) Push(x any) {
	s := x.(*heapSlot)
	h.slots = append(h.slots, s)
	s.at = len(h.slots)
}

func (h *victimHeap) Pop() any {
	n := len(h.slots) - 1
	s := h.slots[n]
	h.slots[n] = nil
	h.slots = h.slots[:n]
	s.at = 0
	return s
}

// file makes s's membership match its eligibility: pushed when it becomes a
// candidate, re-sifted while it stays one (its order key may have moved),
// removed when it stops being one.
func (h *victimHeap) file(s *heapSlot, eligible bool) {
	switch {
	case eligible && s.at == 0:
		heap.Push(h, s)
	case eligible:
		heap.Fix(h, s.at-1)
	case s.at != 0:
		heap.Remove(h, s.at-1)
	}
}

// min returns the next victim, or nil when the tier has no candidate.
func (h *victimHeap) min() *entry {
	if h == nil || len(h.slots) == 0 {
		return nil
	}
	return h.slots[0].e
}

// audit checks h against every resident entry: each slot records its own
// position and sorts no lower than its heap parent, and h holds exactly the
// slots of the eligible entries. member returns an entry's slot on this
// tier (nil when it has no presence there) and whether it is eligible.
func (h *victimHeap) audit(tier string, all []*entry, member func(*entry) (*heapSlot, bool)) []string {
	var bad []string
	for i, s := range h.slots {
		if s.at != i+1 {
			bad = append(bad, fmt.Sprintf("%s victims: slot %d records position %d", tier, i, s.at-1))
		}
		if i > 0 && less(s.e, h.slots[(i-1)/2].e) {
			bad = append(bad, fmt.Sprintf("%s victims: slot %d sorts before its parent", tier, i))
		}
	}
	n := 0
	for _, e := range all {
		s, eligible := member(e)
		if s == nil {
			continue
		}
		if eligible {
			n++
		}
		in := s.at > 0 && s.at <= len(h.slots) && h.slots[s.at-1] == s
		if s.e != e || eligible != in || (s.at != 0) != in {
			bad = append(bad, fmt.Sprintf("%s victims: entry %s/%x eligible=%v, slot position %d, in heap=%v",
				tier, e.model, e.hash, eligible, s.at-1, in))
		}
	}
	if n != len(h.slots) {
		bad = append(bad, fmt.Sprintf("%s victims: %d slots for %d eligible entries", tier, len(h.slots), n))
	}
	return bad
}
