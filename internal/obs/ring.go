package obs

import (
	"fmt"
	"strings"
	"time"
)

// Kind classifies a flat event.
type Kind uint8

// Event kinds emitted by the serving stack.
const (
	KindArrival Kind = iota
	KindPrefillStart
	KindPrefillDone
	KindTurnStart
	KindTurnEnd
	KindSwitchStart
	KindSwitchDone
	KindTokenBatch
	KindRequestDone
	KindEvict
	KindFailure
	KindRecovery
	KindRetry
	KindPrefix
	numKinds
)

// kindNames are printed by the Perfetto export and /debug/trace; they are
// part of both outputs.
var kindNames = [...]string{
	"arrival", "prefill-start", "prefill-done", "turn-start", "turn-end",
	"switch-start", "switch-done", "token-batch", "request-done", "evict",
	"failure", "recovery", "retry", "prefix",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one flat event record. Its detail text is formatted when read,
// by Detail, not when the event is emitted.
type Event struct {
	At       time.Duration // virtual time
	Kind     Kind
	form     detailForm // how Detail renders detail, n and quota
	n        int32
	Instance string // instance name ("" for system-level events)
	Subject  string // request id or model name
	detail   string
	quota    time.Duration
}

// detailForm is how an event's Detail is rendered from what its emitter
// stored.
type detailForm uint8

const (
	detailText   detailForm = iota // detail as is
	detailFrom                     // "from <detail>": a switch's old model
	detailTokens                   // "<n> tokens": a token batch
	detailTurn                     // "<n> reqs, quota <quota>s": a decode turn
)

// Detail returns the event's free-form detail ("" if none).
func (e Event) Detail() string {
	switch e.form {
	case detailFrom:
		return "from " + e.detail
	case detailTokens:
		return fmt.Sprintf("%d tokens", e.n)
	case detailTurn:
		return fmt.Sprintf("%d reqs, quota %.2fs", e.n, e.quota.Seconds())
	}
	return e.detail
}

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12.6fs %-16s", e.At.Seconds(), e.Kind)
	if e.Instance != "" {
		fmt.Fprintf(&b, " %-10s", e.Instance)
	}
	if e.Subject != "" {
		fmt.Fprintf(&b, " %s", e.Subject)
	}
	if d := e.Detail(); d != "" {
		fmt.Fprintf(&b, " (%s)", d)
	}
	return b.String()
}

// Ring is a fixed-size ring of events with per-kind counters. A nil Ring is
// a valid no-op sink.
type Ring struct {
	buf      []Event // allocated at capacity by the first Emit
	capacity int
	next     int
	total    uint64
	counts   [numKinds]uint64
}

// newRing returns a ring retaining the most recent capacity events.
func newRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("obs: non-positive ring capacity")
	}
	return &Ring{capacity: capacity}
}

// Emit records an event. Nil-safe.
func (r *Ring) Emit(e Event) {
	if r == nil {
		return
	}
	r.total++
	if int(e.Kind) < len(r.counts) {
		r.counts[e.Kind]++
	}
	if r.buf == nil {
		r.buf = make([]Event, 0, r.capacity)
	}
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % r.capacity
}

// Total returns the number of events ever emitted (including evicted ones).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Count returns how many events of kind k were emitted.
func (r *Ring) Count(k Kind) uint64 {
	if r == nil || int(k) >= len(r.counts) {
		return 0
	}
	return r.counts[k]
}

// Events returns the retained events in emission order.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Summary renders per-kind counters.
func (r *Ring) Summary() string {
	if r == nil {
		return "trace: disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events total", r.total)
	for k := Kind(0); k < numKinds; k++ {
		if r.counts[k] > 0 {
			fmt.Fprintf(&b, ", %s=%d", k, r.counts[k])
		}
	}
	return b.String()
}
