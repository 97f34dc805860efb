package chaostest

import (
	"os"
	"strconv"
	"testing"
	"time"

	"webgpu/internal/faultinject"
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
