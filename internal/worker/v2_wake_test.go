package worker

import (
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/faultinject"
	"webgpu/internal/queue"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// countPolls arms the broker's poll fault point so that it never fires and
// returns how many polls the broker has served. A poll is counted under
// the broker's lock, so anything published after the count reads n was
// published after the n-th poll looked at the topic.
func countPolls(b *queue.Broker) func() int64 {
	reg := faultinject.New(1)
	reg.Enable(faultinject.PointQueuePoll, faultinject.Fault{After: 1 << 30})
	b.SetFaults(reg)
	return func() int64 { return reg.Evaluations(faultinject.PointQueuePoll) }
}

// nextResult blocks on the broker, as an idle driver does, until a result
// is published, and returns it.
func nextResult(t *testing.T, b *queue.Broker) *Result {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		wake := b.Wait(TopicResults)
		del, ok, err := b.Poll(TopicResults, "web", map[string]bool{}, time.Minute)
		if err != nil {
			t.Fatalf("poll results: %v", err)
		}
		if ok {
			res, err := DecodeResult(del.Msg.Payload)
			if err != nil {
				t.Fatal(err)
			}
			_ = del.Ack()
			return res
		}
		select {
		case <-wake:
		case <-timeout:
			t.Fatal("timed out waiting for a result")
		}
	}
}

// TestIdleDriverIsWokenByPublish: a job published to a driver that has
// already polled an empty topic is picked up because the broker woke the
// driver, which polls on nothing else.
func TestIdleDriverIsWokenByPublish(t *testing.T) {
	b := queue.NewBroker()
	polls := countPolls(b)
	node := NewNode(DefaultNodeConfig("w1"))
	d := NewDriver(node, b, time.Minute)
	d.Start()
	defer d.Stop()
	waitFor(t, "the driver's first, empty poll", func() bool { return polls() >= 1 })

	job := refJob("j1", "vector-add", 0)
	job.TraceID = "trace-wake"
	if _, err := b.Publish(TopicJobs, EncodeJob(job)); err != nil {
		t.Fatal(err)
	}
	res := nextResult(t, b)
	if !res.Correct() {
		t.Fatalf("result = %+v", res)
	}
	var found bool
	for _, sp := range res.Spans {
		if sp.Name != "queue_wait" {
			continue
		}
		found = true
		if got := sp.Attrs["wake"]; got != "publish" {
			t.Errorf("queue_wait wake = %q, want publish", got)
		}
	}
	if !found {
		t.Fatalf("no queue_wait span in %+v", res.Spans)
	}
	if wakeups := node.Metrics().Counter("driver_wakeups"); wakeups != 1 {
		t.Errorf("driver_wakeups = %v, want 1", wakeups)
	}
}

// TestIdleFleetPollsOnlyWhenWoken: idle drivers on a broker whose clock
// moves an hour poll once each and no more, and a job whose driver crashed
// before its ack is handed out again when the broker's own timer expires
// the lease: every poll is a wake-up's, counted exactly.
func TestIdleFleetPollsOnlyWhenWoken(t *testing.T) {
	const n, visibility = 3, time.Minute
	clk := clock.NewManual(time.Unix(0, 0))
	b := queue.NewBroker()
	b.SetClock(clk)
	defer b.Close() // ends the broker's expiry loop, armed on clk for the last lease
	reg := faultinject.New(1)
	reg.Enable(faultinject.PointQueuePoll, faultinject.Fault{After: 1 << 30})
	reg.Enable(faultinject.PointDriverCrashBeforeAck, faultinject.Fault{Once: true})
	b.SetFaults(reg)
	polls := func() int64 { return reg.Evaluations(faultinject.PointQueuePoll) }
	var drivers [n]*Driver
	for i := range drivers {
		d := NewDriver(NewNode(DefaultNodeConfig(nodeID(i+1))), b, visibility)
		d.SetFaults(reg)
		d.Start()
		defer d.Stop()
		drivers[i] = d
	}
	sum := func(read func(d *Driver) int64) (total int64) {
		for _, d := range drivers {
			total += read(d)
		}
		return total
	}
	waitFor(t, "each driver's empty poll", func() bool { return polls() >= n })
	clk.Advance(time.Hour)

	// The publish wakes all n drivers: n polls, one lease. Its driver
	// crashes before the ack and polls once more, finding nothing.
	if _, err := b.Publish(TopicJobs, EncodeJob(refJob("j1", "vector-add", 0))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the injected crash", func() bool { return sum(func(d *Driver) int64 { return d.crashes.Load() }) == 1 })
	waitFor(t, "the crashed driver's next poll", func() bool { return polls() >= 2*n+1 })
	if got := polls(); got != 2*n+1 {
		t.Fatalf("polls after the hour and the publish = %d, want %d", got, 2*n+1)
	}

	// Past the lease, the broker requeues the job and wakes all n again;
	// the driver that takes it runs clean, acks, and polls once more.
	clk.Advance(visibility)
	waitFor(t, "the redelivered job", func() bool { return sum(func(d *Driver) int64 { return d.JobsDone() }) == 1 })
	waitFor(t, "the last driver's next poll", func() bool { return polls() >= 3*n+2 })
	if got := polls(); got != 3*n+2 {
		t.Errorf("polls = %d, want %d", got, 3*n+2)
	}
	if st := b.Stats(); st.Redelivered != 1 || st.Acked != 1 {
		t.Errorf("redelivered = %d, acked = %d, want 1 and 1", st.Redelivered, st.Acked)
	}
	if u := b.Unaccounted(); u != 0 {
		t.Errorf("unaccounted = %d", u)
	}
}

// exited waits, for at most a generous safety bound, until ch is closed.
func exited(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

// TestBlockedDriversExitOnClose: two drivers blocked on an idle broker
// both end their loops when the broker closes.
func TestBlockedDriversExitOnClose(t *testing.T) {
	b := queue.NewBroker()
	polls := countPolls(b)
	var drivers [2]*Driver
	for i := range drivers {
		d := NewDriver(NewNode(DefaultNodeConfig(nodeID(i+1))), b, time.Minute)
		d.Start()
		defer d.Stop()
		drivers[i] = d
	}
	// A driver polls again only when woken, so two polls are one empty
	// poll each.
	waitFor(t, "both drivers' empty polls", func() bool { return polls() >= 2 })

	b.Close()
	for i, d := range drivers {
		if !exited(d.doneCh) {
			t.Fatalf("driver %d still running after the broker closed", i+1)
		}
		d.Stop()
	}
}

// TestStopReleasesBlockedDriver: Stop ends a driver blocked on an idle
// broker.
func TestStopReleasesBlockedDriver(t *testing.T) {
	b := queue.NewBroker()
	polls := countPolls(b)
	node := NewNode(DefaultNodeConfig("w1"))
	d := NewDriver(node, b, time.Minute)
	d.Start()
	waitFor(t, "the driver's first, empty poll", func() bool { return polls() >= 1 })
	stopped := make(chan struct{})
	go func() {
		d.Stop()
		close(stopped)
	}()
	if !exited(stopped) {
		t.Fatal("Stop did not return for a driver blocked on the broker")
	}
	if wakeups := node.Metrics().Counter("driver_wakeups"); wakeups != 0 {
		t.Errorf("driver_wakeups = %v, want 0", wakeups)
	}
}
