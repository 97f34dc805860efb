package queue

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
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
	now := time.Unix(0, 0)
	b.SetClock(func() time.Time { return now })
	_, _ = b.Publish("jobs", []byte("x"))
	d, ok, _ := b.Poll("jobs", "w1", anyCaps(), 30*time.Second)
	if !ok {
		t.Fatal("no message")
	}
	// Before the deadline: invisible.
	now = now.Add(10 * time.Second)
	if _, ok, _ := b.Poll("jobs", "w2", anyCaps(), 30*time.Second); ok {
		t.Fatal("leased message visible early")
	}
	// After the deadline: redelivered, attempts incremented.
	now = now.Add(30 * time.Second)
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
	now := time.Unix(0, 0)
	b.SetClock(func() time.Time { return now })
	_, _ = b.Publish("jobs", []byte("a"))
	_, _ = b.Publish("jobs", []byte("b"))
	if b.Depth("jobs") != 2 || b.Backlog("jobs") != 2 {
		t.Errorf("depth=%d backlog=%d", b.Depth("jobs"), b.Backlog("jobs"))
	}
	_, _, _ = b.Poll("jobs", "w", anyCaps(), time.Minute)
	if b.Depth("jobs") != 2 || b.Backlog("jobs") != 1 {
		t.Errorf("after lease: depth=%d backlog=%d", b.Depth("jobs"), b.Backlog("jobs"))
	}
	now = now.Add(45 * time.Second)
	if got := b.OldestAge("jobs"); got != 45*time.Second {
		t.Errorf("oldest age = %v", got)
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

func TestMirrorReceivesPublishes(t *testing.T) {
	primary := NewBroker()
	standby := NewBroker()
	primary.Mirror(standby)
	for i := 0; i < 10; i++ {
		_, _ = primary.Publish("jobs", []byte{byte(i)}, "cuda")
	}
	if got := standby.Depth("jobs"); got != 10 {
		t.Fatalf("standby depth = %d", got)
	}
	// After failover, the standby serves the jobs with tags intact.
	d, ok, _ := standby.Poll("jobs", "w", anyCaps(), time.Minute)
	if !ok || len(d.Msg.Tags) != 1 || d.Msg.Tags[0] != "cuda" {
		t.Errorf("standby delivery = %+v", d)
	}
}

// TestMirrorForgetsAckedMessages: the standby holds what the primary has
// not seen acked, nothing else — it used to keep every message for ever.
func TestMirrorForgetsAckedMessages(t *testing.T) {
	primary := NewBroker()
	standby := NewBroker()
	primary.Mirror(standby)
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := primary.Publish("jobs", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		job, ok, err := primary.Poll("jobs", "w", anyCaps(), time.Minute)
		if err != nil || !ok {
			t.Fatalf("poll %d: %v %v", i, ok, err)
		}
		if i%5 == 0 { // a redelivery in between changes nothing
			_ = job.Nack()
			job, _, _ = primary.Poll("jobs", "w", anyCaps(), time.Minute)
		}
		if _, err := primary.Publish("results", job.Msg.Payload); err != nil {
			t.Fatal(err)
		}
		if err := job.Ack(); err != nil {
			t.Fatal(err)
		}
		res, ok, _ := primary.Poll("results", "web", anyCaps(), time.Minute)
		if !ok {
			t.Fatalf("result %d missing", i)
		}
		if got := standby.Depth("jobs") + standby.Depth("results"); got != n-i {
			t.Fatalf("after job %d: standby holds %d messages, want %d unacked", i, got, n-i)
		}
		if err := res.Ack(); err != nil {
			t.Fatal(err)
		}
	}
	if got := standby.Depth("jobs") + standby.Depth("results"); got != 0 {
		t.Errorf("standby still holds %d messages after every ack", got)
	}
	if got := standby.Stats().Published; got != 2*n {
		t.Errorf("standby mirrored %d publishes, want %d", got, 2*n)
	}
	for name, b := range map[string]*Broker{"primary": primary, "standby": standby} {
		if u := b.Unaccounted(); u != 0 {
			t.Errorf("%s Unaccounted = %d", name, u)
		}
	}
}

// TestFailoverServesExactlyTheUnacked: whatever state the primary's
// unacked messages were in — visible, leased, nacked — the standby serves
// those and no finished one, under the primary's IDs, and the IDs it
// issues itself afterwards collide with none of them.
func TestFailoverServesExactlyTheUnacked(t *testing.T) {
	primary := NewBroker()
	standby := NewBroker()
	primary.Mirror(standby)
	want := map[string]string{} // unacked ID -> payload
	for i := 0; i < 12; i++ {
		payload := fmt.Sprintf("job-%d", i)
		id, err := primary.Publish("jobs", []byte(payload), "cuda")
		if err != nil {
			t.Fatal(err)
		}
		want[id] = payload
	}
	for i := 0; i < 8; i++ {
		d, ok, _ := primary.Poll("jobs", "w", map[string]bool{"cuda": true}, time.Minute)
		if !ok {
			t.Fatal("poll")
		}
		switch i % 4 {
		case 0, 1: // finished
			if err := d.Ack(); err != nil {
				t.Fatal(err)
			}
			delete(want, d.Msg.ID)
		case 2: // handed back
			_ = d.Nack()
		case 3: // still leased when the primary dies
		}
	}
	primary.Close()

	got := map[string]string{}
	for {
		d, ok, err := standby.Poll("jobs", "w2", map[string]bool{"cuda": true}, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if d.Msg.Attempts != 1 {
			t.Errorf("%s: first standby delivery has Attempts = %d", d.Msg.ID, d.Msg.Attempts)
		}
		got[d.Msg.ID] = string(d.Msg.Payload)
		if err := d.Ack(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("standby served %v\nwant exactly the unacked %v", got, want)
	}
	id, err := standby.Publish("jobs", []byte("after failover"))
	if err != nil {
		t.Fatal(err)
	}
	if id <= "msg-00000012" {
		t.Errorf("standby issued %s, which a mirrored message already carried", id)
	}
	if u := standby.Unaccounted(); u != 0 {
		t.Errorf("standby Unaccounted = %d", u)
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

func TestMetaTagsDoNotConstrainDelivery(t *testing.T) {
	b := NewBroker()
	// A job tagged only with its trace ID must be deliverable by any
	// worker: meta tags annotate, they do not constrain (§VI-B tags are
	// capability requirements; trace IDs are not capabilities).
	_, _ = b.Publish("jobs", []byte("traced-job"), MetaTrace("tr-deadbeef"))
	d, ok, _ := b.Poll("jobs", "w1", map[string]bool{"cuda": true}, time.Minute)
	if !ok || string(d.Msg.Payload) != "traced-job" {
		t.Fatalf("traced job not delivered: %v", d)
	}
	if got := TraceTag(d.Msg.Tags); got != "tr-deadbeef" {
		t.Errorf("TraceTag = %q, want tr-deadbeef", got)
	}
	_ = d.Ack()

	// Real capability tags still constrain even when a meta tag rides along.
	_, _ = b.Publish("jobs", []byte("mpi-traced"), "mpi", MetaTrace("tr-feedface"))
	if _, ok, _ := b.Poll("jobs", "w1", map[string]bool{"cuda": true}, time.Minute); ok {
		t.Error("mpi job delivered to a non-mpi worker")
	}
	d2, ok, _ := b.Poll("jobs", "w2", anyCaps(), time.Minute)
	if !ok || string(d2.Msg.Payload) != "mpi-traced" {
		t.Fatalf("capable worker got %v", d2)
	}
}

func TestTraceTagAbsent(t *testing.T) {
	if got := TraceTag([]string{"mpi", "multi-gpu"}); got != "" {
		t.Errorf("TraceTag = %q, want empty", got)
	}
}
