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

// TestDriverPauseResume: pausing via the remote config stops the driver
// from taking work without killing it; unpausing resumes the backlog.
// Each config change counts as one restart (§VI-B).
func TestDriverPauseResume(t *testing.T) {
	b := queue.NewBroker()
	cfg := Config{PollInterval: time.Millisecond, Visibility: time.Minute}
	cs := NewConfigServer(cfg)
	d := NewDriver(NewNode(DefaultNodeConfig("w1")), b, cs)
	d.Start()
	defer d.Stop()

	_, _ = b.Publish(TopicJobs, EncodeJob(refJob("j1", "vector-add", 0)))
	waitFor(t, "first job", func() bool { return d.JobsDone() == 1 })

	cfg.Paused = true
	cs.Update(cfg)
	waitFor(t, "pause restart", func() bool { return d.restarts.Load() == 1 })

	_, _ = b.Publish(TopicJobs, EncodeJob(refJob("j2", "vector-add", 0)))
	time.Sleep(50 * time.Millisecond) // ample polling intervals to misbehave in
	if got := d.JobsDone(); got != 1 {
		t.Fatalf("paused driver took a job: done = %d", got)
	}
	if got := b.Backlog(TopicJobs); got != 1 {
		t.Fatalf("backlog = %d, want the job still queued", got)
	}

	cfg.Paused = false
	cs.Update(cfg)
	waitFor(t, "resumed job", func() bool { return d.JobsDone() == 2 })
	if got := d.restarts.Load(); got != 2 {
		t.Errorf("restarts = %d, want 2", got)
	}
}

// TestDriverVisibilityChangeMidFlight: shortening the lease via the
// remote config applies to future polls only — a lease already taken
// under the old visibility keeps its original deadline, and the job
// redelivers (and completes) once that expires.
func TestDriverVisibilityChangeMidFlight(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	b := queue.NewBroker()
	b.SetClock(clk)

	reg := faultinject.New(1)
	reg.Enable(faultinject.PointDriverCrashBeforeAck, faultinject.Fault{Once: true})

	cfg := Config{PollInterval: time.Millisecond, Visibility: 60 * time.Second}
	cs := NewConfigServer(cfg)
	d := NewDriver(NewNode(DefaultNodeConfig("w1")), b, cs)
	d.SetFaults(reg)
	d.Start()
	defer d.Stop()

	// The first delivery crashes before its ack, leaving a 60s lease.
	_, _ = b.Publish(TopicJobs, EncodeJob(refJob("j1", "vector-add", 0)))
	waitFor(t, "injected crash", func() bool { return d.crashes.Load() == 1 })

	// Shorten the visibility mid-flight.
	cfg.Visibility = 5 * time.Second
	cs.Update(cfg)
	waitFor(t, "config restart", func() bool { return d.restarts.Load() == 1 })

	// 6 simulated seconds in: past the new 5s visibility but far inside
	// the original 60s lease — the abandoned job must NOT redeliver yet.
	clk.Advance(6 * time.Second)
	time.Sleep(50 * time.Millisecond)
	if got := d.JobsDone(); got != 0 {
		t.Fatalf("job redelivered before its original lease expired: done = %d", got)
	}

	// Past the original lease: redelivered and completed (the crash fault
	// was Once, so the retry runs clean).
	clk.Advance(60 * time.Second)
	waitFor(t, "redelivered job", func() bool { return d.JobsDone() == 1 })
	if got := b.Stats().Redelivered; got != 1 {
		t.Errorf("redelivered = %d, want 1", got)
	}
	if u := b.Unaccounted(); u != 0 {
		t.Errorf("unaccounted = %d", u)
	}
}
