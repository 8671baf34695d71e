// Package metastore is the shared-memory metadata service of Fig. 5 (Redis
// in the paper's deployment): a small key/value store with prefix watches
// and simulated access latency, used by the proxy layer to synchronize
// request metadata with serving instances for load balancing and fault
// tolerance.
package metastore

import (
	"errors"
	"sort"
	"strings"
	"time"

	"aegaeon/internal/sim"
)

// ErrUnavailable is delivered by the error-aware operations while the store
// is partitioned away: the op was dropped, nothing was read or written.
var ErrUnavailable = errors.New("metastore: unavailable (network partition)")

// Store is an in-memory key/value store bound to the simulation clock.
type Store struct {
	eng     *sim.Engine
	rtt     time.Duration
	data    map[string]string
	watches []*watch

	// Fault windows, driven by the injection layer. While partitioned every
	// operation fails with ErrUnavailable; while slowed the RTT is
	// multiplied.
	partitionedUntil sim.Time
	slowUntil        sim.Time
	slowFactor       float64

	// lastDone is the completion time of the most recently submitted op;
	// later submissions never complete before it (see run).
	lastDone sim.Time

	gets, sets, deletes, failed uint64
}

type watch struct {
	prefix string
	fn     func(key, value string)
	closed bool
}

// New creates a store with the given simulated round-trip latency per
// operation (0 for synchronous semantics).
func New(eng *sim.Engine, rtt time.Duration) *Store {
	return &Store{
		eng:  eng,
		rtt:  rtt,
		data: map[string]string{},
	}
}

// Partition makes the store unreachable for d: every operation submitted
// while the window is open fails with ErrUnavailable. Overlapping windows
// extend.
func (s *Store) Partition(d time.Duration) {
	if d <= 0 {
		return
	}
	if until := s.eng.Now() + d; until > s.partitionedUntil {
		s.partitionedUntil = until
	}
}

// SlowBy multiplies the store RTT by factor for d (a latency spike).
func (s *Store) SlowBy(factor float64, d time.Duration) {
	if factor <= 1 || d <= 0 {
		return
	}
	if until := s.eng.Now() + d; until > s.slowUntil {
		s.slowUntil = until
	}
	s.slowFactor = factor
}

// Available reports whether the store is reachable right now.
func (s *Store) Available() bool { return s.eng.Now() >= s.partitionedUntil }

// latency returns the effective per-op RTT under any active latency spike.
func (s *Store) latency() time.Duration {
	if s.eng.Now() < s.slowUntil && s.slowFactor > 1 {
		return time.Duration(float64(s.rtt) * s.slowFactor)
	}
	return s.rtt
}

// run executes op after the effective RTT (synchronously at rtt<=0).
// Availability is sampled at submission: an op issued inside a partition
// window fails even if the window closes before the RTT elapses.
//
// Completions are FIFO: an op submitted later never completes before an
// earlier one. Per-op latency alone breaks this when a latency spike expires
// between two submissions — the slowed op would land after the fast one, so
// applies (and the watch notifications they fire) would replay in an order
// that contradicts submission. Serializing on lastDone pins notification
// order to submission order.
func (s *Store) run(op func(err error)) {
	var err error
	if !s.Available() {
		s.failed++
		err = ErrUnavailable
	}
	at := s.eng.Now() + s.latency()
	if at < s.lastDone {
		at = s.lastDone
	}
	s.lastDone = at
	if at > s.eng.Now() {
		s.eng.At(at, func() { op(err) })
		return
	}
	op(err)
}

// applySet commits a write and notifies watchers (already past the RTT).
func (s *Store) applySet(key, value string) {
	s.data[key] = value
	for _, w := range s.watches {
		if !w.closed && strings.HasPrefix(key, w.prefix) {
			w.fn(key, value)
		}
	}
}

// Set writes key=value and notifies watchers after the RTT elapses. done
// (nil allowed) fires when the write is acknowledged, with ErrUnavailable
// when a partition dropped it.
func (s *Store) Set(key, value string, done func(err error)) {
	s.sets++
	s.run(func(err error) {
		if err == nil {
			s.applySet(key, value)
		}
		if done != nil {
			done(err)
		}
	})
}

// GetE is Get with failure reporting: err is ErrUnavailable when the store
// was partitioned at submission time (value/ok are zero then).
func (s *Store) GetE(key string, fn func(value string, ok bool, err error)) {
	s.gets++
	s.run(func(err error) {
		if err != nil {
			fn("", false, err)
			return
		}
		v, ok := s.data[key]
		fn(v, ok, nil)
	})
}

// CompareAndSwap atomically replaces key's value with new iff the current
// value equals old (an absent key compares as ""). The comparison and the
// write happen in the same event after the RTT, so concurrent claimants
// serialize: exactly one of two racing CAS("", x) calls wins. A successful
// swap notifies watchers like Set.
func (s *Store) CompareAndSwap(key, old, new string, done func(swapped bool, err error)) {
	s.sets++
	s.run(func(err error) {
		if err != nil {
			if done != nil {
				done(false, err)
			}
			return
		}
		if s.data[key] != old {
			if done != nil {
				done(false, nil)
			}
			return
		}
		s.applySet(key, new)
		if done != nil {
			done(true, nil)
		}
	})
}

// GetNow reads synchronously (for instance-local bookkeeping and tests).
func (s *Store) GetNow(key string) (string, bool) {
	v, ok := s.data[key]
	return v, ok
}

// Delete removes a key and notifies watchers with an empty value. done (nil
// allowed) fires when the delete is acknowledged, with ErrUnavailable when a
// partition dropped it.
func (s *Store) Delete(key string, done func(err error)) {
	s.deletes++
	s.run(func(err error) {
		if err == nil {
			if _, ok := s.data[key]; ok {
				delete(s.data, key)
				for _, w := range s.watches {
					if !w.closed && strings.HasPrefix(key, w.prefix) {
						w.fn(key, "")
					}
				}
			}
		}
		if done != nil {
			done(err)
		}
	})
}

// Watch registers fn for every future Set/Delete under prefix; returns an
// idempotent cancel function. Cancelling removes the watch from the store
// — long-running servers register and cancel watches continuously, so a
// closed watch must not pin its callback forever.
func (s *Store) Watch(prefix string, fn func(key, value string)) (cancel func()) {
	w := &watch{prefix: prefix, fn: fn}
	s.watches = append(s.watches, w)
	return func() {
		if w.closed {
			return
		}
		w.closed = true
		// Compact into a fresh slice: a notification sweep may be ranging
		// over the old backing array right now (a callback can cancel its
		// own or a sibling watch), and the closed flag keeps that sweep
		// correct while this rebuild keeps the store from leaking.
		kept := make([]*watch, 0, len(s.watches)-1)
		for _, x := range s.watches {
			if !x.closed {
				kept = append(kept, x)
			}
		}
		s.watches = kept
	}
}

// Keys returns the sorted keys under prefix (synchronous; diagnostics).
func (s *Store) Keys(prefix string) []string {
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// ControlView is the /debug/metastore snapshot, schema 2: the single
// store's op counters, watches and availability.
type ControlView struct {
	SchemaVersion int    `json:"schema_version"`
	Mode          string `json:"mode"` // always "single"
	Gets          uint64 `json:"gets"`
	Sets          uint64 `json:"sets"`
	Deletes       uint64 `json:"deletes"`
	FailedOps     uint64 `json:"failed_ops"`
	Watches       int    `json:"watches"`
	Available     bool   `json:"available"`
}

// View snapshots the store for the debug endpoint and metrics.
func (s *Store) View() ControlView {
	return ControlView{
		SchemaVersion: 2,
		Mode:          "single",
		Gets:          s.gets,
		Sets:          s.sets,
		Deletes:       s.deletes,
		FailedOps:     s.failed,
		Watches:       len(s.watches),
		Available:     s.Available(),
	}
}
