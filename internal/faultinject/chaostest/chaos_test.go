package chaostest

import (
	"errors"
	"os"
	"strconv"
	"testing"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/queue"
	"webgpu/internal/worker"
)

// soakSeeds returns the seeds to run: CHAOS_SEED=<n> replays exactly one
// (the loop a failing CI run tells you to do), otherwise a fixed set so
// the suite is deterministic run to run.
func soakSeeds(t *testing.T) []int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q is not an integer: %v", v, err)
		}
		return []int64{n}
	}
	return []int64{1, 2, 3}
}

func soakScenario(t *testing.T, seed int64) Scenario {
	jobs := 200
	if testing.Short() {
		jobs = 60
	}
	return Scenario{
		Seed:        seed,
		Jobs:        jobs,
		Workers:     4,
		FaultRate:   0.12,
		Visibility:  150 * time.Millisecond,
		Timeout:     90 * time.Second,
		KillWorkers: true,
	}
}

func TestChaosSoakV2(t *testing.T) {
	for _, seed := range soakSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			rep, err := RunV2(soakScenario(t, seed))
			if err != nil {
				t.Fatalf("%v\nreplay with CHAOS_SEED=%d", err, seed)
			}
			t.Logf("v2 soak: %s", rep)
			if rep.Graded != rep.Jobs {
				t.Fatalf("graded %d of %d jobs; replay with CHAOS_SEED=%d", rep.Graded, rep.Jobs, seed)
			}
		})
	}
}

func TestChaosSoakV1(t *testing.T) {
	for _, seed := range soakSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			rep, err := RunV1(soakScenario(t, seed))
			if err != nil {
				t.Fatalf("%v\nreplay with CHAOS_SEED=%d", err, seed)
			}
			t.Logf("v1 soak: %s", rep)
			if rep.Graded != rep.Jobs {
				t.Fatalf("graded %d of %d jobs; replay with CHAOS_SEED=%d", rep.Graded, rep.Jobs, seed)
			}
		})
	}
}

// TestChaosSoakV2DeadLetterRedrive turns the fault rate up and the
// attempt budget down so jobs actually poison into the DLQ, then checks
// the phase-2 redrive still lands every one of them exactly once.
func TestChaosSoakV2DeadLetterRedrive(t *testing.T) {
	rep, err := RunV2(Scenario{
		Seed:        7,
		Jobs:        40,
		Workers:     4,
		FaultRate:   0.4,
		MaxAttempts: 2,
		Visibility:  150 * time.Millisecond,
		Timeout:     90 * time.Second,
	})
	if err != nil {
		t.Fatalf("%v\nreplay with CHAOS_SEED=7", err)
	}
	t.Logf("v2 DLQ soak: %s", rep)
	if rep.DeadLettered == 0 {
		t.Error("no job was dead-lettered; the redrive path went untested")
	}
	if rep.Redriven == 0 {
		t.Error("nothing was redriven")
	}
}

// TestChaosReplayDeterminism checks the harness's core promise: the same
// seed arms the same faults and fires them on the same evaluations, so
// the registry summary of two runs with one seed matches exactly.
func TestChaosReplayDeterminism(t *testing.T) {
	run := func() string {
		reg := faultinject.New(42)
		armV2(reg, 0.5)
		var out string
		for i := 0; i < 500; i++ {
			if reg.Fire(faultinject.PointQueuePublish) != nil {
				out += "p"
			}
			if reg.Fire(faultinject.PointDriverCrashBeforeAck) != nil {
				out += "c"
			}
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%q\n%q", a, b)
	}
}

// TestV2FailoverToStandby kills the primary broker mid-run and checks
// the drivers move to the mirror and finish the work from there.
func TestV2FailoverToStandby(t *testing.T) {
	primary := queue.NewBroker()
	standby := queue.NewBroker()
	primary.Mirror(standby)
	defer standby.Close()

	// The driver starts paused so the primary dies before it can serve a
	// single job — otherwise the fast jobs all finish on the primary and
	// the mirror only ever sees copies.
	cfg := worker.Config{
		PollInterval: time.Millisecond,
		Visibility:   time.Second,
		Paused:       true,
	}
	cfgSrv := worker.NewConfigServer(cfg)
	node := worker.NewNode(worker.DefaultNodeConfig("failover-w1"))
	d := worker.NewDriver(node, primary, cfgSrv)
	d.SetStandby(standby)
	d.Start()
	defer d.Stop()

	const jobs = 10
	for i := 0; i < jobs; i++ {
		if _, err := primary.Publish(worker.TopicJobs, worker.EncodeJob(chaosJob(i))); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	// Kill the primary out from under the driver and unpause it.
	primary.Close()
	if _, err := primary.Publish(worker.TopicJobs, nil); !errors.Is(err, queue.ErrClosed) {
		t.Fatalf("publish on closed broker: %v", err)
	}
	cfg.Paused = false
	cfgSrv.Update(cfg)

	// No job was acked, so the standby holds and serves all of them; the
	// results land on the standby too.
	dedup := worker.NewResultDedup(0)
	graded := map[string]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(graded) < jobs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs finished on the standby (failovers=%d)",
				len(graded), jobs, d.Failovers())
		}
		del, ok, err := standby.Poll(worker.TopicResults, "t", map[string]bool{}, time.Second)
		if err != nil {
			t.Fatalf("standby poll: %v", err)
		}
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		res, derr := worker.DecodeResult(del.Msg.Payload)
		if derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		if dedup.Accept(res.JobID, res.Attempt) {
			graded[res.JobID] = true
		}
		_ = del.Ack()
	}
	if got := d.Failovers(); got != 1 {
		t.Errorf("Failovers() = %d, want 1", got)
	}
}
