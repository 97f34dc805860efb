package worker

import (
	"testing"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/queue"
)

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
// driver — its poll interval is an hour, so the tick cannot have found it.
func TestIdleDriverIsWokenByPublish(t *testing.T) {
	b := queue.NewBroker()
	polls := countPolls(b)
	node := NewNode(DefaultNodeConfig("w1"))
	d := NewDriver(node, b, NewConfigServer(Config{PollInterval: time.Hour, Visibility: time.Minute}))
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
	m := node.Metrics()
	if wakeups, ticks := m.Counter("driver_wakeups"), m.Counter("driver_idle_ticks"); wakeups != 1 || ticks != 0 {
		t.Errorf("driver_wakeups = %v, driver_idle_ticks = %v, want 1 and 0", wakeups, ticks)
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
// with an hour's poll interval both end their loops when the broker
// closes, released by the close rather than by a tick.
func TestBlockedDriversExitOnClose(t *testing.T) {
	b := queue.NewBroker()
	polls := countPolls(b)
	cs := NewConfigServer(Config{PollInterval: time.Hour, Visibility: time.Minute})
	var drivers [2]*Driver
	for i := range drivers {
		d := NewDriver(NewNode(DefaultNodeConfig(nodeID(i+1))), b, cs)
		d.Start()
		defer d.Stop()
		drivers[i] = d
	}
	// A driver polls again only when woken or after an hour, so two polls
	// are one empty poll each.
	waitFor(t, "both drivers' empty polls", func() bool { return polls() >= 2 })

	b.Close()
	for i, d := range drivers {
		if !exited(d.doneCh) {
			t.Fatalf("driver %d still running after the broker closed", i+1)
		}
		d.Stop()
		if ticks := d.node.Metrics().Counter("driver_idle_ticks"); ticks != 0 {
			t.Errorf("driver %d: driver_idle_ticks = %v, want 0", i+1, ticks)
		}
	}
}

// TestBlockedDriverKeepsConfigWatch: what the broker does not announce —
// a pause, an unpause — still reaches a driver blocked on it within one
// poll interval.
func TestBlockedDriverKeepsConfigWatch(t *testing.T) {
	const interval = 150 * time.Millisecond
	b := queue.NewBroker()
	polls := countPolls(b)
	cfg := Config{PollInterval: interval, Visibility: time.Minute}
	cs := NewConfigServer(cfg)
	d := NewDriver(NewNode(DefaultNodeConfig("w1")), b, cs)
	d.Start()
	defer d.Stop()
	waitFor(t, "the driver's first, empty poll", func() bool { return polls() >= 1 })

	// Observed within one interval; the bound leaves one more for a loaded host.
	for i, paused := range []bool{true, false} {
		cfg.Paused = paused
		start := time.Now()
		cs.Update(cfg)
		waitFor(t, "config change", func() bool { return d.restarts.Load() == int64(i+1) })
		if took := time.Since(start); took >= 2*interval {
			t.Errorf("paused=%v observed after %v, want within the %v interval", paused, took, interval)
		}
	}
	_, _ = b.Publish(TopicJobs, EncodeJob(refJob("j1", "vector-add", 0)))
	waitFor(t, "job after unpause", func() bool { return d.JobsDone() == 1 })
}

// TestStopReleasesBlockedDriver: Stop does not wait the interval out.
func TestStopReleasesBlockedDriver(t *testing.T) {
	b := queue.NewBroker()
	polls := countPolls(b)
	node := NewNode(DefaultNodeConfig("w1"))
	d := NewDriver(node, b, NewConfigServer(Config{PollInterval: time.Hour, Visibility: time.Minute}))
	d.Start()
	waitFor(t, "the driver's first, empty poll", func() bool { return polls() >= 1 })
	stopped := make(chan struct{})
	go func() {
		d.Stop()
		close(stopped)
	}()
	if !exited(stopped) {
		t.Fatal("Stop did not return for a driver blocked on an hour's interval")
	}
	m := node.Metrics()
	if wakeups, ticks := m.Counter("driver_wakeups"), m.Counter("driver_idle_ticks"); wakeups != 0 || ticks != 0 {
		t.Errorf("driver_wakeups = %v, driver_idle_ticks = %v, want 0 and 0", wakeups, ticks)
	}
}
