package queue

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webgpu/internal/clock"
)

func released(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestWaitReleasedByEveryVisibilityEvent: each way a message can become
// visible on a topic — and Close — releases a waiter that took its channel
// before an empty Poll, and (Close apart) leaves a waiter on another topic
// blocked.
func TestWaitReleasedByEveryVisibilityEvent(t *testing.T) {
	type env struct {
		b   *Broker
		clk *clock.Manual
	}
	// lease publishes one message on "a" and leases it.
	lease := func(t *testing.T, e *env, visibility time.Duration) *Delivery {
		t.Helper()
		if _, err := e.b.Publish("a", []byte("m")); err != nil {
			t.Fatal(err)
		}
		d, ok, err := e.b.Poll("a", "w", anyCaps(), visibility)
		if err != nil || !ok {
			t.Fatalf("poll: %v %v", ok, err)
		}
		return d
	}
	cases := []struct {
		name string
		// arm prepares the broker with nothing visible on "a" and returns
		// the event that makes a message visible there.
		arm      func(t *testing.T, e *env) (event func())
		wakesAll bool // the event releases every topic's waiters
	}{
		{name: "publish", arm: func(t *testing.T, e *env) func() {
			return func() { _, _ = e.b.Publish("a", []byte("m")) }
		}},
		{name: "nack", arm: func(t *testing.T, e *env) func() {
			d := lease(t, e, time.Minute)
			return func() { _ = d.Nack() }
		}},
		{name: "lease expiry found by a poll of another topic", arm: func(t *testing.T, e *env) func() {
			lease(t, e, time.Second)
			return func() {
				e.clk.Advance(2 * time.Second)
				_, _, _ = e.b.Poll("b", "w", anyCaps(), time.Minute)
			}
		}},
		{name: "lease expiry found by Depth", arm: func(t *testing.T, e *env) func() {
			lease(t, e, time.Second)
			return func() {
				e.clk.Advance(2 * time.Second)
				e.b.Depth("b")
			}
		}},
		{name: "redrive", arm: func(t *testing.T, e *env) func() {
			e.b.SetMaxAttempts(1)
			_ = lease(t, e, time.Minute).Nack() // straight to the dead-letter queue
			if n := len(e.b.DeadLetters()); n != 1 {
				t.Fatalf("dead letters = %d, want 1", n)
			}
			return func() { e.b.RedriveDeadLetters() }
		}},
		{name: "close", wakesAll: true, arm: func(t *testing.T, e *env) func() {
			return func() { e.b.Close() }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &env{b: NewBroker(), clk: clock.NewManual(time.Unix(0, 0))}
			e.b.SetClock(e.clk)
			event := tc.arm(t, e)

			onA, onB := e.b.Wait("a"), e.b.Wait("b")
			if _, ok, err := e.b.Poll("a", "w", anyCaps(), time.Minute); ok || err != nil {
				t.Fatalf("a message is visible before the event: %v %v", ok, err)
			}
			if released(onA) || released(onB) {
				t.Fatal("a waiter was released before the event")
			}
			event()
			if !released(onA) {
				t.Error("the waiter on the topic was not released")
			}
			if released(onB) != tc.wakesAll {
				t.Errorf("waiter on another topic released = %v, want %v", !tc.wakesAll, tc.wakesAll)
			}
			if tc.wakesAll {
				if !released(e.b.Wait("a")) {
					t.Error("Wait on a closed broker must return a closed channel")
				}
				return
			}
			if _, ok, err := e.b.Poll("a", "w", anyCaps(), time.Minute); !ok || err != nil {
				t.Errorf("released, but nothing to lease: %v %v", ok, err)
			}
			if next := e.b.Wait("a"); released(next) {
				t.Error("a channel taken after the event is already closed")
			}
		})
	}
}

// TestLeaseExpiryWakesWaiter: the broker expires a lease on its own clock.
// A waiter that took its channel while the one message was leased is
// released once the clock passes the lease's deadline, with no Poll,
// Depth or Backlog call to find the expiry, and not a tick before.
func TestLeaseExpiryWakesWaiter(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	b := NewBroker()
	b.SetClock(clk)
	defer b.Close()
	if _, err := b.Publish("a", []byte("m")); err != nil {
		t.Fatal(err)
	}
	d, ok, err := b.Poll("a", "w", anyCaps(), time.Minute)
	if err != nil || !ok {
		t.Fatalf("poll: %v %v", ok, err)
	}
	wake := b.Wait("a")
	clk.Advance(time.Minute - time.Nanosecond)
	if released(wake) {
		t.Fatal("the waiter was released before the lease's deadline")
	}
	clk.Advance(time.Nanosecond)
	select {
	case <-wake:
	case <-time.After(10 * time.Second):
		t.Fatal("the expired lease did not release the waiter")
	}
	if err := d.Ack(); !errors.Is(err, ErrUnknown) {
		t.Errorf("ack of the expired lease = %v, want ErrUnknown", err)
	}
	if st := b.Stats(); st.Inflight != 0 {
		t.Errorf("inflight = %d after expiry, want 0", st.Inflight)
	}
}

// TestWaitStress: 8 publishers, 4 consumers that block on Wait after an
// empty Poll, 10 000 messages, one lease in ten nacked. Every message is
// acked exactly once (a second lease of a held message would ack it
// twice), nothing is lost, and no consumer is ever blocked on an open
// channel while a message is visible — the lost wake-up.
func TestWaitStress(t *testing.T) {
	const (
		publishers = 8
		consumers  = 4
		total      = 10000
	)
	b := NewBroker()
	b.SetMaxAttempts(1 << 30) // a nack is a retry here, never a dead letter

	var (
		mu     sync.Mutex
		acked  = map[string]int{}
		nAcked atomic.Int64
		done   = make(chan struct{})
		once   sync.Once
		wg     sync.WaitGroup
	)
	finish := func() { once.Do(func() { close(done) }) }

	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < total/publishers; i++ {
				if _, err := b.Publish("jobs", []byte(fmt.Sprintf("%d-%d", p, i))); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			check := time.NewTicker(20 * time.Millisecond)
			defer check.Stop()
			for {
				wake := b.Wait("jobs")
				d, ok, err := b.Poll("jobs", fmt.Sprintf("c%d", c), anyCaps(), time.Minute)
				if err != nil {
					t.Errorf("poll: %v", err)
					finish()
					return
				}
				if !ok {
					for blocked := true; blocked; {
						select {
						case <-wake:
							blocked = false
						case <-done:
							return
						case <-check.C:
							// Anything visible now was enqueued after the empty
							// Poll, so after Wait: the channel must be closed.
							if b.Backlog("jobs") > 0 && !released(wake) {
								t.Error("lost wake-up: a message is visible and the waiter's channel is open")
								finish()
								return
							}
						}
					}
					continue
				}
				id := string(d.Msg.Payload)
				nack := rng.Intn(10) == 0
				if nack {
					err = d.Nack()
				} else {
					mu.Lock()
					acked[id]++
					mu.Unlock()
					err = d.Ack()
				}
				if err != nil {
					t.Errorf("settle %s: %v", id, err)
				}
				if !nack && nAcked.Add(1) == total {
					finish()
				}
			}
		}(c)
	}
	wg.Wait()

	if len(acked) != total {
		t.Errorf("acked %d distinct messages, want %d", len(acked), total)
	}
	for id, n := range acked {
		if n != 1 {
			t.Errorf("message %s acked %d times", id, n)
		}
	}
	if u := b.Unaccounted(); u != 0 {
		t.Errorf("unaccounted = %d", u)
	}
	if s := b.Stats(); s.Acked != total || s.Inflight != 0 || s.Nacked == 0 {
		t.Errorf("stats = %+v", s)
	}
}
