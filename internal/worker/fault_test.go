package worker

import (
	"testing"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/queue"
)

func TestResultDedup(t *testing.T) {
	d := NewResultDedup(3)
	if !d.Accept("j1", 1) {
		t.Fatal("first result rejected")
	}
	if d.Accept("j1", 2) {
		t.Fatal("duplicate accepted")
	}
	if got := d.Duplicates(); got != 1 {
		t.Errorf("duplicates = %d", got)
	}
	if a, ok := d.AcceptedAttempt("j1"); !ok || a != 1 {
		t.Errorf("accepted attempt = %d, %v", a, ok)
	}
	// FIFO eviction at capacity: j1 falls out after three newer jobs.
	d.Accept("j2", 1)
	d.Accept("j3", 1)
	d.Accept("j4", 1)
	if d.Len() != 3 {
		t.Errorf("len = %d, want capacity 3", d.Len())
	}
	if _, ok := d.AcceptedAttempt("j1"); ok {
		t.Error("j1 should have been evicted")
	}
	if !d.Accept("j1", 5) {
		t.Error("post-eviction result should be accepted again")
	}
}

func TestNodeIDFormatting(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{1, "worker-001"},
		{42, "worker-042"},
		{999, "worker-999"},
		// The old per-digit rune arithmetic produced "worker-:00" here.
		{1000, "worker-1000"},
		{12345, "worker-12345"},
	}
	for _, tc := range cases {
		if got := nodeID(tc.n); got != tc.want {
			t.Errorf("nodeID(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

// TestDriverDuplicateResultCarriesAttempt exercises the at-least-once
// duplicate-result hole end to end: a driver that crashes after
// publishing its result (but before the ack) causes a redelivery, and
// BOTH results land on the results topic — distinguished by their
// attempt number, on the Result and as an attempt: meta tag, so a
// deduping consumer keeps exactly one.
func TestDriverDuplicateResultCarriesAttempt(t *testing.T) {
	b := queue.NewBroker()
	cs := NewConfigServer(Config{PollInterval: time.Millisecond, Visibility: 50 * time.Millisecond})
	faults := faultinject.New(1)
	faults.Enable(faultinject.PointDriverCrashAfterPublish, faultinject.Fault{Once: true})

	d := NewDriver(NewNode(DefaultNodeConfig("w1")), b, cs)
	d.SetFaults(faults)
	d.Start()
	defer d.Stop()

	_, _ = b.Publish(TopicJobs, EncodeJob(refJob("jdup", "vector-add", 0)))
	deadline := time.Now().Add(10 * time.Second)
	for b.Depth(TopicResults) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := b.Depth(TopicResults); got != 2 {
		t.Fatalf("results depth = %d, want the duplicate too", got)
	}

	dedup := NewResultDedup(0)
	accepted := 0
	for i := 0; i < 2; i++ {
		del, ok, err := b.Poll(TopicResults, "web", map[string]bool{}, time.Minute)
		if !ok || err != nil {
			t.Fatalf("poll %d: %v %v", i, ok, err)
		}
		res, derr := DecodeResult(del.Msg.Payload)
		if derr != nil {
			t.Fatal(derr)
		}
		wantAttempt := i + 1 // FIFO: attempt 1's result precedes attempt 2's
		if res.Attempt != wantAttempt {
			t.Errorf("result %d: attempt = %d, want %d", i, res.Attempt, wantAttempt)
		}
		if res.JobID != "jdup" {
			t.Errorf("result %d: job = %q", i, res.JobID)
		}
		if dedup.Accept(res.JobID, res.Attempt) {
			accepted++
		}
		_ = del.Ack()
	}
	if accepted != 1 {
		t.Errorf("accepted %d results, want exactly 1", accepted)
	}
	if got := d.Crashes(); got != 1 {
		t.Errorf("crashes = %d, want 1", got)
	}
}
