// Package clock is the platform's one notion of time. A Clock tells the
// time and makes the timers of the component that holds it, so a test
// that swaps in a Manual clock controls a component's windows, heartbeats
// and timeouts as well as its timestamps, and never sleeps. Limiter is the
// keyed token bucket every rate limit runs on.
package clock

import (
	"slices"
	"sync"
	"time"
)

// Clock is a time source that also makes timers.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) *Timer
}

// Timer is a one-shot timer: C receives the firing time once, unless
// Stop disarms the timer first. A wait that repeats makes a new Timer.
type Timer struct {
	C    <-chan time.Time
	wall *time.Timer // nil on a Manual clock
	m    *Manual
	c    chan time.Time
	at   time.Time
}

// Stop disarms the timer.
func (t *Timer) Stop() {
	if t.wall != nil {
		t.wall.Stop()
		return
	}
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if i := slices.Index(t.m.timers, t); i >= 0 {
		t.m.timers = slices.Delete(t.m.timers, i, i+1)
	}
}

// Real is the wall clock.
var Real Clock = wall{}

type wall struct{}

func (wall) Now() time.Time { return time.Now() }

func (wall) NewTimer(d time.Duration) *Timer {
	w := time.NewTimer(d)
	return &Timer{C: w.C, wall: w}
}

// Manual is a clock that moves only when Advance moves it. Safe for
// concurrent use.
type Manual struct {
	mu     sync.Mutex
	armed  sync.Cond
	now    time.Time
	timers []*Timer // armed, in arming order
}

// NewManual returns a manual clock reading start.
func NewManual(start time.Time) *Manual {
	m := &Manual{now: start}
	m.armed.L = &m.mu
	return m
}

// Now returns the clock's reading.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// NewTimer arms a timer that fires once the clock has advanced d.
func (m *Manual) NewTimer(d time.Duration) *Timer {
	c := make(chan time.Time, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Timer{C: c, m: m, c: c, at: m.now.Add(d)}
	m.timers = append(m.timers, t)
	m.armed.Broadcast()
	m.fireDueLocked() // a timer due at once fires at once
	return t
}

// Advance moves the clock forward by d and fires every timer due by the
// new reading, in deadline order (ties in arming order), each sending its
// deadline.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = m.now.Add(d)
	m.fireDueLocked()
}

// BlockUntil waits until at least n timers are armed, so a test can
// advance past a deadline another goroutine is about to set.
func (m *Manual) BlockUntil(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.timers) < n {
		m.armed.Wait()
	}
}

func (m *Manual) fireDueLocked() {
	slices.SortStableFunc(m.timers, func(a, b *Timer) int { return a.at.Compare(b.at) })
	for len(m.timers) > 0 && !m.timers[0].at.After(m.now) {
		m.timers[0].c <- m.timers[0].at // fires once, into room for one
		m.timers = m.timers[1:]
	}
}
