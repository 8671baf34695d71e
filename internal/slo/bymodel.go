package slo

import (
	"sort"
	"sync"
	"time"
)

// ByModel keys concurrency-safe Trackers by model name, so windowed live
// monitoring and cumulative offline reporting share one attainment
// definition. The zero value is ready to use.
type ByModel struct {
	mu       sync.Mutex
	trackers map[string]*Tracker
}

// NewByModel returns an empty per-model tracker set.
func NewByModel() *ByModel { return &ByModel{} }

// Get returns the tracker for the model, creating it on first use.
func (b *ByModel) Get(model string) *Tracker {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.trackers == nil {
		b.trackers = map[string]*Tracker{}
	}
	t, ok := b.trackers[model]
	if !ok {
		t = NewTracker()
		b.trackers[model] = t
	}
	return t
}

// ObserveRequest records one request's token times under its model. Like
// Tracker.ObserveRequest it reads times, never modifies it and never
// retains it.
func (b *ByModel) ObserveRequest(model string, s SLO, arrival time.Duration, times []time.Duration) {
	b.Get(model).ObserveRequest(s, arrival, times)
}

// ObserveDropped records one dropped (never-generated) token under the
// model, with the same semantics as Tracker.ObserveDropped.
func (b *ByModel) ObserveDropped(model string) { b.Get(model).ObserveDropped() }

// Models returns the tracked model names, sorted.
func (b *ByModel) Models() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.trackers))
	for m := range b.trackers {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Each calls fn for every (model, tracker) pair in sorted model order.
func (b *ByModel) Each(fn func(model string, t *Tracker)) {
	for _, m := range b.Models() {
		fn(m, b.Get(m))
	}
}
