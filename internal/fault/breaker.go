package fault

import (
	"sync"
	"time"
)

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int

const (
	BreakerClosed   BreakerState = iota // traffic flows
	BreakerOpen                         // tripping threshold hit; reject with Retry-After
	BreakerHalfOpen                     // cooldown elapsed; one probe in flight
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a per-model circuit breaker for the gateway's admission path.
// Consecutive failures trip it open; after Cooldown a single probe request
// is admitted, and its outcome either closes the breaker or re-opens it.
// Breaker runs on the wall clock (it guards HTTP admission, not simulated
// work) and is safe for concurrent use; tests inject a fake clock via now.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a closed breaker tripping after threshold consecutive
// failures (default 3) with the given cooldown (default 5s).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may proceed. When it returns false,
// retryAfter is the suggested client wait (the remaining cooldown, floored
// at one second for header friendliness).
func (b *Breaker) Allow() (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		elapsed := b.now().Sub(b.openedAt)
		if elapsed >= b.cooldown {
			b.state = BreakerHalfOpen
			b.probing = true
			return true, 0
		}
		ra := b.cooldown - elapsed
		if ra < time.Second {
			ra = time.Second
		}
		return false, ra
	case BreakerHalfOpen:
		if b.probing {
			return false, time.Second
		}
		b.probing = true
		return true, 0
	}
	return true, 0
}

// Success records a completed request: closes a half-open breaker and
// resets the consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.probing = false
	b.state = BreakerClosed
}

// Failure records a failed request. In the closed state it counts toward
// the trip threshold; in half-open it re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
		}
	case BreakerHalfOpen, BreakerOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probing = false
	}
}

// State returns the current automaton state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
