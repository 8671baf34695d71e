package fault

import (
	"math"
	"math/rand"
	"time"
)

// The retry policy used across the stack: 50ms, 100ms, 200ms, ... capped at
// 2s, with ±20% decorrelating jitter, and six attempts before a caller
// gives up (or re-arms).
const (
	retryBase   = 50 * time.Millisecond // delay before the first retry
	retryMax    = 2 * time.Second       // cap applied after exponentiation
	retryFactor = 2                     // multiplier per attempt
	retryJitter = 0.2                   // fraction of the delay randomized
	maxAttempts = 6
)

// backoffDelay returns the wait before retry number attempt (0-based). With
// a nil rng the jitter term is omitted, which keeps the value deterministic
// for callers outside the seeded simulation; otherwise it draws exactly one
// value from rng.
func backoffDelay(attempt int, rng *rand.Rand) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := float64(retryBase) * math.Pow(retryFactor, float64(attempt))
	if d > float64(retryMax) {
		d = float64(retryMax)
	}
	if rng != nil {
		d *= 1 - retryJitter + 2*retryJitter*rng.Float64()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}
