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
// is published, and returns it with the time it became available.
func nextResult(t *testing.T, b *queue.Broker) (*Result, time.Time) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		wake := b.Wait(TopicResults)
		del, ok, err := b.Poll(TopicResults, "web", map[string]bool{}, time.Minute)
		if err != nil {
			t.Fatalf("poll results: %v", err)
		}
		if ok {
			at := time.Now()
			res, err := DecodeResult(del.Msg.Payload)
			if err != nil {
				t.Fatal(err)
			}
			_ = del.Ack()
			return res, at
		}
		select {
		case <-wake:
		case <-timeout:
			t.Fatal("timed out waiting for a result")
		}
	}
}

// TestIdleDriverIsWokenByPublish: with a one-second poll interval, a job
// published to a driver that has already polled an empty topic starts
// within milliseconds, and the driver says the broker woke it — the
// interval is the longest an idle driver sleeps, not a job's latency.
func TestIdleDriverIsWokenByPublish(t *testing.T) {
	b := queue.NewBroker()
	polls := countPolls(b)
	node := NewNode(DefaultNodeConfig("w1"))
	d := NewDriver(node, b, NewConfigServer(Config{PollInterval: time.Second, Visibility: time.Minute}))
	d.Start()
	defer d.Stop()
	waitFor(t, "the driver's first, empty poll", func() bool { return polls() >= 1 })

	job := refJob("j1", "vector-add", 0)
	job.TraceID = "trace-wake"
	if _, err := b.Publish(TopicJobs, EncodeJob(job)); err != nil {
		t.Fatal(err)
	}
	res, _ := nextResult(t, b)
	if !res.Correct() {
		t.Fatalf("result = %+v", res)
	}
	var found bool
	for _, sp := range res.Spans {
		if sp.Name != "queue_wait" {
			continue
		}
		found = true
		if sp.Dur >= 50*time.Millisecond {
			t.Errorf("job waited %v on the broker for an idle driver, want < 50ms", sp.Dur)
		}
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

// TestBlockedDriversFailOverOnClose: two drivers are blocked on an idle
// primary whose one job is leased to a consumer that died; the standby
// holds its mirrored copy. Closing the primary releases both at once, and
// one of them finishes the job from the standby — without waiting out the
// one-second interval.
func TestBlockedDriversFailOverOnClose(t *testing.T) {
	primary, standby := queue.NewBroker(), queue.NewBroker()
	primary.Mirror(standby)
	if _, err := primary.Publish(TopicJobs, EncodeJob(refJob("j1", "vector-add", 0))); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := primary.Poll(TopicJobs, "doomed", map[string]bool{}, time.Minute); !ok || err != nil {
		t.Fatalf("lease for the doomed consumer: %v %v", ok, err)
	}

	polls := countPolls(primary)
	cs := NewConfigServer(Config{PollInterval: time.Second, Visibility: time.Minute})
	var drivers [2]*Driver
	for i := range drivers {
		d := NewDriver(NewNode(DefaultNodeConfig(nodeID(i+1))), primary, cs)
		d.SetStandby(standby)
		d.Start()
		defer d.Stop()
		drivers[i] = d
	}
	// A driver polls again only when woken or after a second, so two
	// polls are one empty poll each.
	waitFor(t, "both drivers' empty polls", func() bool { return polls() >= 2 })

	closed := time.Now()
	primary.Close()
	res, at := nextResult(t, standby)
	if !res.Correct() || res.JobID != "j1" {
		t.Fatalf("result = %+v", res)
	}
	if took := at.Sub(closed); took >= 100*time.Millisecond {
		t.Errorf("mirrored job finished %v after the primary closed, want < 100ms", took)
	}
	waitFor(t, "both failovers", func() bool {
		return drivers[0].Failovers() == 1 && drivers[1].Failovers() == 1
	})
	if u := standby.Unaccounted(); u != 0 {
		t.Errorf("standby unaccounted = %d", u)
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
		waitFor(t, "config change", func() bool { return d.Restarts() == int64(i+1) })
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
	d := NewDriver(NewNode(DefaultNodeConfig("w1")), b,
		NewConfigServer(Config{PollInterval: time.Minute, Visibility: time.Minute}))
	d.Start()
	waitFor(t, "the driver's first, empty poll", func() bool { return polls() >= 1 })
	start := time.Now()
	d.Stop()
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Errorf("Stop took %v on a driver blocked for a minute", took)
	}
}
