package queue

import (
	"errors"
	"testing"
	"time"

	"webgpu/internal/clock"
)

// TestTagMatchingMatrix is the table-driven contract for capability
// matching: a message is delivered exactly when its tags are a subset of
// the consumer's capabilities.
func TestTagMatchingMatrix(t *testing.T) {
	cudaOnly := map[string]bool{"cuda": true}
	cases := []struct {
		name        string
		tags        []string
		caps        map[string]bool
		wantDeliver bool
	}{
		{"no tags, no caps", nil, map[string]bool{}, true},
		{"capability met", []string{"cuda"}, cudaOnly, true},
		{"capability missing", []string{"mpi"}, cudaOnly, false},
		{"two requirements, both met", []string{"mpi", "multi-gpu"}, map[string]bool{"mpi": true, "multi-gpu": true, "cuda": true}, true},
		{"two requirements, one missing", []string{"mpi", "multi-gpu"}, map[string]bool{"mpi": true, "cuda": true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBroker()
			_, _ = b.Publish("jobs", []byte("m"), tc.tags...)
			_, ok, err := b.Poll("jobs", "w", tc.caps, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.wantDeliver {
				t.Errorf("delivered = %v, want %v", ok, tc.wantDeliver)
			}
		})
	}
}

// TestRedriveThenRepoison checks a redriven message keeps misbehaving
// correctly: its attempt budget resets, and exhausting it again parks it
// in the DLQ a second time rather than looping forever.
func TestRedriveThenRepoison(t *testing.T) {
	b := NewBroker()
	b.SetMaxAttempts(2)
	_, _ = b.Publish("jobs", []byte("poison"))
	exhaust := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			d, ok, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
			if !ok {
				t.Fatal("no message")
			}
			_ = d.Nack()
		}
	}
	exhaust()
	if n := b.RedriveDeadLetters(); n != 1 {
		t.Fatalf("first redrive = %d", n)
	}
	exhaust()
	if got := len(b.DeadLetters()); got != 1 {
		t.Fatalf("re-poisoned DLQ = %d entries, want 1", got)
	}
	if got := b.Stats().DeadLetters; got != 2 {
		t.Errorf("cumulative dead letters = %d, want 2", got)
	}
	if u := b.Unaccounted(); u != 0 {
		t.Errorf("unaccounted = %d after redrive cycle", u)
	}
}

// TestStaleDeliveryAfterRedrive: a redrive resets a message's attempts,
// so its next lease repeats the attempt number of its first. The delivery
// from before the redrive must still be stale: its Ack fails and leaves
// the new lease to settle.
func TestStaleDeliveryAfterRedrive(t *testing.T) {
	b := NewBroker()
	clk := clock.NewManual(time.Unix(0, 0))
	b.SetClock(clk)
	b.SetMaxAttempts(1)
	_, _ = b.Publish("jobs", []byte("x"))
	a, ok, _ := b.Poll("jobs", "w1", anyCaps(), time.Second)
	if !ok {
		t.Fatal("no message")
	}
	clk.Advance(2 * time.Second)
	if n := b.Backlog("jobs"); n != 0 {
		t.Fatalf("backlog = %d, want the expired message dead-lettered", n)
	}
	if n := b.RedriveDeadLetters(); n != 1 {
		t.Fatalf("redriven = %d, want 1", n)
	}
	d, ok, _ := b.Poll("jobs", "w2", anyCaps(), time.Minute)
	if !ok {
		t.Fatal("redriven message not delivered")
	}
	if a.Msg.Attempts != d.Msg.Attempts {
		t.Fatalf("attempts %d and %d: the redrive did not reset them", a.Msg.Attempts, d.Msg.Attempts)
	}
	if err := a.Ack(); !errors.Is(err, ErrUnknown) {
		t.Errorf("stale ack = %v, want ErrUnknown", err)
	}
	if err := d.Ack(); err != nil {
		t.Errorf("live ack = %v", err)
	}
	if u := b.Unaccounted(); u != 0 {
		t.Errorf("unaccounted = %d", u)
	}
}

// TestPollZeroVisibility: a zero-length lease expires instantly, so the
// next poll redelivers and the original delivery can no longer ack.
func TestPollZeroVisibility(t *testing.T) {
	b := NewBroker()
	b.SetClock(clock.NewManual(time.Unix(0, 0)))
	_, _ = b.Publish("jobs", []byte("x"))
	d1, ok, _ := b.Poll("jobs", "w1", anyCaps(), 0)
	if !ok {
		t.Fatal("no message")
	}
	d2, ok, _ := b.Poll("jobs", "w2", anyCaps(), time.Minute)
	if !ok {
		t.Fatal("zero-visibility lease not instantly redelivered")
	}
	if d2.Msg.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", d2.Msg.Attempts)
	}
	if err := d1.Ack(); !errors.Is(err, ErrUnknown) {
		t.Errorf("stale ack = %v, want ErrUnknown", err)
	}
	if err := d2.Ack(); err != nil {
		t.Errorf("live ack = %v", err)
	}
}

// TestConservationInvariant drives the broker through every lifecycle
// transition and checks Unaccounted() == 0 after each step: no operation
// may lose a message or count one twice.
func TestConservationInvariant(t *testing.T) {
	type step struct {
		name string
		op   func(t *testing.T, b *Broker, env map[string]*Delivery)
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"publish poll ack", []step{
			{"publish", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				_, _ = b.Publish("jobs", []byte("a"))
			}},
			{"poll", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				d, ok, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
				if !ok {
					t.Fatal("no message")
				}
				env["d"] = d
			}},
			{"ack", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				_ = env["d"].Ack()
			}},
		}},
		{"nack cycle", []step{
			{"publish", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				_, _ = b.Publish("jobs", []byte("a"))
			}},
			{"poll+nack", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				d, _, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
				_ = d.Nack()
			}},
			{"repoll+ack", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				d, _, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
				_ = d.Ack()
			}},
		}},
		{"poison redrive drain", []step{
			{"publish", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				b.SetMaxAttempts(1)
				_, _ = b.Publish("jobs", []byte("a"))
			}},
			{"poison", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				d, _, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
				_ = d.Nack()
			}},
			{"redrive", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				if n := b.RedriveDeadLetters(); n != 1 {
					t.Fatalf("redriven = %d", n)
				}
			}},
			{"drain", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				d, _, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
				_ = d.Ack()
			}},
		}},
		{"expired lease", []step{
			{"publish", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				_, _ = b.Publish("jobs", []byte("a"))
			}},
			{"zero-vis poll", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				_, _, _ = b.Poll("jobs", "w", anyCaps(), 0)
			}},
			{"redeliver+ack", func(t *testing.T, b *Broker, env map[string]*Delivery) {
				d, ok, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
				if !ok {
					t.Fatal("expired lease not redelivered")
				}
				_ = d.Ack()
			}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBroker()
			env := map[string]*Delivery{}
			for _, s := range tc.steps {
				s.op(t, b, env)
				if u := b.Unaccounted(); u != 0 {
					t.Fatalf("after %q: unaccounted = %d", s.name, u)
				}
			}
		})
	}
}
