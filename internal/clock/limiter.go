package clock

import (
	"sync"
	"time"
)

// maxKeys is the key count past which a new key sweeps the limiter.
const maxKeys = 16384

// Limiter is a keyed token bucket: each key holds up to burst tokens and
// gets one back every interval. It is GCRA on the limiter's clock in
// integer nanoseconds: a key stores only its theoretical arrival time
// (TAT), when its bucket is full again, so no fractional token is ever
// rounded. A key whose TAT has passed admits exactly as an absent one
// does; past maxKeys keys, a new key drops all such keys, at most once
// per refill time, so the sweep is lossless and the map holds the bound
// plus the keys of the last two refill times at most.
type Limiter struct {
	clock            Clock
	epoch            time.Time
	interval, refill time.Duration // refill: burst·interval, an empty bucket's time to fill

	mu     sync.Mutex
	tat    map[string]time.Duration // since epoch
	swept  time.Duration
	sweeps int
}

// NewLimiter returns a limiter of burst tokens per key, one refilled
// every interval, on clock c. A burst or interval that is not positive
// means no limit, and the result is nil, which admits everything.
func NewLimiter(burst int, interval time.Duration, c Clock) *Limiter {
	if burst <= 0 || interval <= 0 {
		return nil
	}
	refill := time.Duration(burst) * interval
	return &Limiter{clock: c, epoch: c.Now(), interval: interval, refill: refill,
		tat: map[string]time.Duration{}, swept: -refill}
}

// Take charges one token to key and returns 0, or, when key's bucket is
// empty, leaves it alone and returns how long until its next token.
func (l *Limiter) Take(key string) time.Duration {
	if l == nil {
		return 0
	}
	now := l.clock.Now().Sub(l.epoch)
	l.mu.Lock()
	defer l.mu.Unlock()
	tat, ok := l.tat[key]
	if !ok && len(l.tat) >= maxKeys && now-l.swept >= l.refill {
		l.swept, l.sweeps = now, l.sweeps+1
		for k, t := range l.tat {
			if t <= now {
				delete(l.tat, k)
			}
		}
	}
	tat = max(tat, now) // an absent key's zero TAT is in the past too
	if wait := tat - now - (l.refill - l.interval); wait > 0 {
		return wait
	}
	l.tat[key] = tat + l.interval
	return 0
}

// Len reports how many keys the limiter holds.
func (l *Limiter) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.tat)
}
