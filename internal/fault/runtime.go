package fault

import (
	"math/rand"
	"time"

	"aegaeon/internal/sim"
)

// Stats counts fault activity across the stack. All fields are cumulative;
// the struct is copied out by Snapshot on the simulation goroutine.
type Stats struct {
	Crashes          uint64 // instances fail-stopped
	Recoveries       uint64 // orphan recovery passes completed
	Resumed          uint64 // requests resumed from host-resident KV
	Recomputed       uint64 // requests re-prefilled (KV re-materialized)
	FetchFailures    uint64 // remote model fetch attempts that failed
	FetchRetries     uint64 // fetch retries scheduled
	FetchExhausted   uint64 // fetch attempt budgets exhausted (cool-down re-arm)
	TransferFailures uint64 // H2D/D2H attempts that failed
	TransferRetries  uint64 // transfer retries scheduled
	StoreFailures    uint64 // metastore ops dropped by a partition
	StoreRetries     uint64 // metastore op retries scheduled
	Rejected         uint64 // requests cleanly failed (no capacity after crash)
}

// Faults holds the live fault windows for one simulation.
// It is bound to the sim clock: windows are compared against eng.Now(), and
// retry jitter draws from a dedicated seeded rng so fault handling does not
// perturb the workload's random stream.
//
// A nil *Faults is the off switch: every query reports "no fault active" and
// every counter increment is a no-op, so components thread the pointer
// unconditionally.
type Faults struct {
	eng *sim.Engine
	rng *rand.Rand

	xferFailUntil  map[string]sim.Time // instance -> window end
	fetchFailUntil map[string]sim.Time // model -> window end ("*" = all)
	fetchSlowUntil sim.Time
	fetchSlow      float64

	stats Stats
}

// New builds fault state bound to eng. seed feeds the jitter rng only.
func New(eng *sim.Engine, seed int64) *Faults {
	return &Faults{
		eng:            eng,
		rng:            rand.New(rand.NewSource(seed)),
		xferFailUntil:  map[string]sim.Time{},
		fetchFailUntil: map[string]sim.Time{},
	}
}

// --- window mutators (no-ops on nil) ---

// FailTransfers poisons KV transfers on instance ("" or "*" = all) for d.
func (f *Faults) FailTransfers(instance string, d time.Duration) {
	if f == nil {
		return
	}
	if instance == "" {
		instance = "*"
	}
	f.extend(f.xferFailUntil, instance, d)
}

// FailFetch poisons remote fetches of model ("" or "*" = all) for d.
func (f *Faults) FailFetch(model string, d time.Duration) {
	if f == nil {
		return
	}
	if model == "" {
		model = "*"
	}
	f.extend(f.fetchFailUntil, model, d)
}

// SlowFetch multiplies remote fetch latency by factor for d.
func (f *Faults) SlowFetch(factor float64, d time.Duration) {
	if f == nil || factor <= 0 || d <= 0 {
		return
	}
	until := f.eng.Now() + d
	if until > f.fetchSlowUntil {
		f.fetchSlowUntil = until
	}
	f.fetchSlow = factor
}

func (f *Faults) extend(m map[string]sim.Time, key string, d time.Duration) {
	if d <= 0 {
		return
	}
	until := f.eng.Now() + d
	if until > m[key] {
		m[key] = until
	}
}

// --- queries (nil-safe) ---

// TransferFailing reports whether KV transfers on instance fail right now.
func (f *Faults) TransferFailing(instance string) bool {
	if f == nil {
		return false
	}
	now := f.eng.Now()
	return f.xferFailUntil[instance] > now || f.xferFailUntil["*"] > now
}

// FetchFailing reports whether remote fetches of model fail right now.
func (f *Faults) FetchFailing(model string) bool {
	if f == nil {
		return false
	}
	now := f.eng.Now()
	return f.fetchFailUntil[model] > now || f.fetchFailUntil["*"] > now
}

// FetchFactor returns the current remote-fetch latency multiplier (>= 1).
func (f *Faults) FetchFactor() float64 {
	if f == nil || f.eng.Now() >= f.fetchSlowUntil || f.fetchSlow <= 1 {
		return 1
	}
	return f.fetchSlow
}

// RetryDelay returns the jittered backoff delay for the given 0-based
// attempt. Callable on nil (no jitter) so retry loops need no guard.
func (f *Faults) RetryDelay(attempt int) time.Duration {
	if f == nil {
		return backoffDelay(attempt, nil)
	}
	return backoffDelay(attempt, f.rng)
}

// MaxAttempts returns the bounded retry budget.
func (f *Faults) MaxAttempts() int { return maxAttempts }

// --- counters (nil-safe) ---

func (f *Faults) CountCrash() {
	if f != nil {
		f.stats.Crashes++
	}
}

func (f *Faults) CountRecovery(resumed, recomputed int) {
	if f != nil {
		f.stats.Recoveries++
		f.stats.Resumed += uint64(resumed)
		f.stats.Recomputed += uint64(recomputed)
	}
}

func (f *Faults) CountFetchFailure() {
	if f != nil {
		f.stats.FetchFailures++
	}
}

func (f *Faults) CountFetchRetry() {
	if f != nil {
		f.stats.FetchRetries++
	}
}

func (f *Faults) CountFetchExhausted() {
	if f != nil {
		f.stats.FetchExhausted++
	}
}

func (f *Faults) CountTransferFailure() {
	if f != nil {
		f.stats.TransferFailures++
	}
}

func (f *Faults) CountTransferRetry() {
	if f != nil {
		f.stats.TransferRetries++
	}
}

func (f *Faults) CountStoreFailure() {
	if f != nil {
		f.stats.StoreFailures++
	}
}

func (f *Faults) CountStoreRetry() {
	if f != nil {
		f.stats.StoreRetries++
	}
}

func (f *Faults) CountRejected() {
	if f != nil {
		f.stats.Rejected++
	}
}

// Snapshot copies the counters. Zero value on nil.
func (f *Faults) Snapshot() Stats {
	if f == nil {
		return Stats{}
	}
	return f.stats
}
