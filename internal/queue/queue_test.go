package queue

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"webgpu/internal/clock"
)

func anyCaps() map[string]bool {
	return map[string]bool{"cuda": true, "opencl": true, "mpi": true, "multi-gpu": true}
}

func TestPublishPollAck(t *testing.T) {
	b := NewBroker()
	id, err := b.Publish("jobs", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	d, ok, err := b.Poll("jobs", "w1", anyCaps(), time.Minute)
	if err != nil || !ok {
		t.Fatalf("poll: %v %v", ok, err)
	}
	if d.Msg.ID != id || string(d.Msg.Payload) != "payload" {
		t.Errorf("msg = %+v", d.Msg)
	}
	if err := d.Ack(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Poll("jobs", "w1", anyCaps(), time.Minute); ok {
		t.Error("acked message redelivered")
	}
	s := b.Stats()
	if s.Published != 1 || s.Delivered != 1 || s.Acked != 1 || s.Inflight != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFIFOWithinTopic(t *testing.T) {
	b := NewBroker()
	for i := 0; i < 3; i++ {
		if _, err := b.Publish("jobs", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		d, ok, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
		if !ok {
			t.Fatal("missing message")
		}
		if d.Msg.Payload[0] != byte('a'+i) {
			t.Errorf("order violated: got %c at %d", d.Msg.Payload[0], i)
		}
		_ = d.Ack()
	}
}

func TestTagFiltering(t *testing.T) {
	b := NewBroker()
	_, _ = b.Publish("jobs", []byte("mpi-job"), "mpi", "multi-gpu")
	_, _ = b.Publish("jobs", []byte("plain-job"))

	// A plain CUDA worker must skip the MPI job and get the plain one.
	plainCaps := map[string]bool{"cuda": true}
	d, ok, _ := b.Poll("jobs", "w1", plainCaps, time.Minute)
	if !ok || string(d.Msg.Payload) != "plain-job" {
		t.Fatalf("plain worker got %v", d)
	}
	_ = d.Ack()
	if _, ok, _ := b.Poll("jobs", "w1", plainCaps, time.Minute); ok {
		t.Error("plain worker leased the MPI job")
	}
	// The capable worker gets it.
	d2, ok, _ := b.Poll("jobs", "w2", anyCaps(), time.Minute)
	if !ok || string(d2.Msg.Payload) != "mpi-job" {
		t.Fatalf("capable worker got %v", d2)
	}
}

func TestVisibilityTimeoutRedelivery(t *testing.T) {
	b := NewBroker()
	clk := clock.NewManual(time.Unix(0, 0))
	b.SetClock(clk)
	_, _ = b.Publish("jobs", []byte("x"))
	d, ok, _ := b.Poll("jobs", "w1", anyCaps(), 30*time.Second)
	if !ok {
		t.Fatal("no message")
	}
	// Before the deadline: invisible.
	clk.Advance(10 * time.Second)
	if _, ok, _ := b.Poll("jobs", "w2", anyCaps(), 30*time.Second); ok {
		t.Fatal("leased message visible early")
	}
	// After the deadline: redelivered, attempts incremented.
	clk.Advance(30 * time.Second)
	d2, ok, _ := b.Poll("jobs", "w2", anyCaps(), 30*time.Second)
	if !ok {
		t.Fatal("expired message not redelivered")
	}
	if d2.Msg.Attempts != 2 {
		t.Errorf("attempts = %d", d2.Msg.Attempts)
	}
	// The original consumer's late Ack now fails.
	if err := d.Ack(); !errors.Is(err, ErrUnknown) {
		t.Errorf("stale ack = %v", err)
	}
	if b.Stats().Redelivered != 1 {
		t.Errorf("redelivered = %d", b.Stats().Redelivered)
	}
}

func TestNackRequeuesImmediately(t *testing.T) {
	b := NewBroker()
	_, _ = b.Publish("jobs", []byte("x"))
	d, _, _ := b.Poll("jobs", "w1", anyCaps(), time.Minute)
	if err := d.Nack(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Poll("jobs", "w1", anyCaps(), time.Minute); !ok {
		t.Fatal("nacked message not requeued")
	}
}

func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	b := NewBroker()
	b.SetMaxAttempts(3)
	_, _ = b.Publish("jobs", []byte("poison"))
	for i := 0; i < 3; i++ {
		d, ok, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
		if !ok {
			t.Fatalf("attempt %d: message unavailable", i)
		}
		_ = d.Nack()
	}
	if _, ok, _ := b.Poll("jobs", "w", anyCaps(), time.Minute); ok {
		t.Fatal("poison message still delivered")
	}
	dls := b.DeadLetters()
	if len(dls) != 1 || string(dls[0].Payload) != "poison" {
		t.Errorf("dead letters = %v", dls)
	}
}

func TestRedriveDeadLetters(t *testing.T) {
	b := NewBroker()
	b.SetMaxAttempts(2)
	_, _ = b.Publish("jobs", []byte("poison"), "cuda")
	for i := 0; i < 2; i++ {
		d, ok, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
		if !ok {
			t.Fatal("no message")
		}
		_ = d.Nack()
	}
	if len(b.DeadLetters()) != 1 {
		t.Fatal("message not dead-lettered")
	}
	if n := b.RedriveDeadLetters(); n != 1 {
		t.Fatalf("redriven = %d", n)
	}
	if len(b.DeadLetters()) != 0 {
		t.Error("DLQ not emptied")
	}
	// The message is deliverable again with a fresh attempt budget and its
	// tags intact.
	d, ok, _ := b.Poll("jobs", "w", anyCaps(), time.Minute)
	if !ok || d.Msg.Attempts != 1 || len(d.Msg.Tags) != 1 {
		t.Fatalf("redriven delivery = %+v", d)
	}
	_ = d.Ack()
}

func TestDepthAndBacklog(t *testing.T) {
	b := NewBroker()
	clk := clock.NewManual(time.Unix(0, 0))
	b.SetClock(clk)
	_, _ = b.Publish("jobs", []byte("a"))
	_, _ = b.Publish("jobs", []byte("b"))
	if b.Depth("jobs") != 2 || b.Backlog("jobs") != 2 {
		t.Errorf("depth=%d backlog=%d", b.Depth("jobs"), b.Backlog("jobs"))
	}
	_, _, _ = b.Poll("jobs", "w", anyCaps(), time.Minute)
	if b.Depth("jobs") != 2 || b.Backlog("jobs") != 1 {
		t.Errorf("after lease: depth=%d backlog=%d", b.Depth("jobs"), b.Backlog("jobs"))
	}
}

func TestTopicsIndependent(t *testing.T) {
	b := NewBroker()
	_, _ = b.Publish("jobs", []byte("j"))
	_, _ = b.Publish("results", []byte("r"))
	d, ok, _ := b.Poll("results", "w", anyCaps(), time.Minute)
	if !ok || string(d.Msg.Payload) != "r" {
		t.Fatalf("results poll = %v", d)
	}
	if b.Depth("jobs") != 1 {
		t.Error("jobs topic drained by results poll")
	}
}

func TestClosedBroker(t *testing.T) {
	b := NewBroker()
	b.Close()
	if _, err := b.Publish("jobs", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("publish = %v", err)
	}
	if _, _, err := b.Poll("jobs", "w", anyCaps(), time.Minute); !errors.Is(err, ErrClosed) {
		t.Errorf("poll = %v", err)
	}
}

func TestConcurrentConsumersNoDuplicates(t *testing.T) {
	b := NewBroker()
	const n = 200
	for i := 0; i < n; i++ {
		_, _ = b.Publish("jobs", []byte(fmt.Sprintf("%d", i)))
	}
	var mu sync.Mutex
	seen := map[string]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				d, ok, err := b.Poll("jobs", fmt.Sprintf("w%d", w), anyCaps(), time.Minute)
				if err != nil || !ok {
					return
				}
				mu.Lock()
				seen[string(d.Msg.Payload)]++
				mu.Unlock()
				_ = d.Ack()
			}
		}(w)
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("saw %d distinct messages, want %d", len(seen), n)
	}
	for k, v := range seen {
		if v != 1 {
			t.Errorf("message %s delivered %d times", k, v)
		}
	}
}
