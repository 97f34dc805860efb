package worker

import (
	"testing"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/queue"
)

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
// attempt number — and a first-wins consumer keeps exactly one.
func TestDriverDuplicateResultCarriesAttempt(t *testing.T) {
	b := queue.NewBroker()
	faults := faultinject.New(1)
	faults.Enable(faultinject.PointDriverCrashAfterPublish, faultinject.Fault{Once: true})

	d := NewDriver(NewNode(DefaultNodeConfig("w1")), b, 50*time.Millisecond)
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

	seen := map[string]bool{}
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
		if !seen[res.JobID] {
			seen[res.JobID] = true
			accepted++
		}
		_ = del.Ack()
	}
	if accepted != 1 {
		t.Errorf("accepted %d results, want exactly 1", accepted)
	}
	if got := d.crashes.Load(); got != 1 {
		t.Errorf("crashes = %d, want 1", got)
	}
}
