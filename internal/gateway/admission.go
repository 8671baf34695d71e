package gateway

import "time"

// tokenBucket is a classic refill-on-read rate limiter guarding admission.
// Loop only, like every piece of admission state.
type tokenBucket struct {
	rate   float64 // tokens per second (0 = unlimited)
	burst  float64
	tokens float64
	last   time.Time
}

// newTokenBucket seeds the refill clock at construction: the first allow()
// call then refills for exactly the elapsed time since the gateway came up,
// rather than special-casing a zero timestamp. (The old first-call guard
// skipped the refill entirely, so a sub-second-spaced first pair of requests
// after a quiet start could observe burst+1 effective capacity.)
func newTokenBucket(rate float64, burst int, now time.Time) tokenBucket {
	return tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: now}
}

// allow consumes one token if available, refilling by elapsed wall time.
func (b *tokenBucket) allow(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.tokens += elapsed.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// retryBudget keeps client retries from amplifying an incident: every fresh
// (attempt-zero) admission deposits a fraction of a token, and each retry
// spends a whole one. When retries outnumber ratio × fresh traffic the
// budget empties and further retries are rejected outright, so a retry storm
// against an overloaded fleet decays instead of compounding. Loop only.
type retryBudget struct {
	ratio  float64
	burst  float64
	tokens float64
}

func newRetryBudget(ratio float64, burst int) retryBudget {
	return retryBudget{ratio: ratio, burst: float64(burst), tokens: float64(burst)}
}

// deposit credits the budget for one fresh request.
func (b *retryBudget) deposit() {
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// spend consumes one token for a retry, reporting whether it was available.
func (b *retryBudget) spend() bool {
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int

const (
	breakerClosed   breakerState = iota // traffic flows
	breakerOpen                         // tripping threshold hit; reject with Retry-After
	breakerHalfOpen                     // cooldown elapsed; its one probe in flight
)

func (s breakerState) String() string { return [...]string{"closed", "open", "half-open"}[s] }

// breaker is a model's circuit breaker. breakerThreshold consecutive
// failures trip it open; after breakerCooldown a single probe request is
// admitted, and its outcome either closes the breaker or re-opens it. It
// runs on the wall clock, now (it guards HTTP admission, not simulated
// work), which tests replace. Loop only.
type breaker struct {
	now func() time.Time

	state    breakerState
	fails    int
	openedAt time.Time
}

// allow reports whether a request may proceed. When it returns false,
// retryAfter is the suggested client wait (the remaining cooldown, floored
// at one second for header friendliness).
func (b *breaker) allow() (ok bool, retryAfter time.Duration) {
	switch b.state {
	case breakerOpen:
		elapsed := b.now().Sub(b.openedAt)
		if elapsed >= breakerCooldown {
			b.state = breakerHalfOpen
			return true, 0
		}
		return false, max(breakerCooldown-elapsed, time.Second)
	case breakerHalfOpen:
		return false, time.Second
	}
	return true, 0
}

// success records a completed request: closes a half-open breaker and
// resets the consecutive-failure count.
func (b *breaker) success() {
	b.fails = 0
	b.state = breakerClosed
}

// failure records a failed request. In the closed state it counts toward
// the trip threshold; in half-open it re-opens immediately.
func (b *breaker) failure() {
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= breakerThreshold {
			b.state = breakerOpen
			b.openedAt = b.now()
		}
	case breakerHalfOpen, breakerOpen:
		b.state = breakerOpen
		b.openedAt = b.now()
	}
}
