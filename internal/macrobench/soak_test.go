package macrobench

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// soakSeeds returns the seeds to run: CHAOS_SEED=<n> replays exactly one
// (the loop a failing CI run tells you to do), otherwise a fixed pair so
// the suite is deterministic run to run.
func soakSeeds(t *testing.T) []int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q is not an integer: %v", v, err)
		}
		return []int64{n}
	}
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2}
}

// TestOverloadSoak is the overload-survival acceptance run: a chaos-soaked
// deadline spike at 10×+ worker capacity, with reader and drafter
// populations competing for admission. The platform must
//
//   - land every submission (zero shed, zero lost — the broker's
//     conservation invariant holds after the drain),
//   - shed only the sheddable classes (reads and drafts both observe
//     429s while the spike saturates the pool),
//   - keep the end-to-end submission p99 bounded.
//
// Every decision flows from the seed; a failure replays with
// CHAOS_SEED=<seed> go test ./internal/macrobench -run TestOverloadSoak.
func TestOverloadSoak(t *testing.T) {
	if testing.Short() && os.Getenv("CHAOS_SEED") == "" {
		t.Skip("full-platform soak; skipped in -short unless CHAOS_SEED replays it")
	}
	for _, seed := range soakSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			s := chaosSpike(seed)
			res, err := Run(s)
			if err != nil {
				t.Fatalf("%v\nreplay with CHAOS_SEED=%d", err, seed)
			}
			t.Logf("soak: %s", res)

			if s.Multiplier < 10 {
				t.Errorf("spike multiplier %.1f is below the 10× survival bar", s.Multiplier)
			}
			if res.SubmitOK != res.Submissions {
				t.Errorf("submit_ok = %d, want %d; replay with CHAOS_SEED=%d",
					res.SubmitOK, res.Submissions, seed)
			}
			if res.SubmitShed != 0 {
				t.Errorf("submission class shed %d requests; submissions must never shed (CHAOS_SEED=%d)",
					res.SubmitShed, seed)
			}
			if res.LostJobs != 0 {
				t.Errorf("lost_jobs = %d, want 0: broker conservation violated (CHAOS_SEED=%d)",
					res.LostJobs, seed)
			}
			if res.DeadLetters != 0 {
				t.Errorf("dead_letters = %d after redrive, want 0 (CHAOS_SEED=%d)",
					res.DeadLetters, seed)
			}
			if res.ReadShed == 0 {
				t.Errorf("read class never shed: the spike did not exercise admission control (CHAOS_SEED=%d)", seed)
			}
			if res.DraftShed == 0 {
				t.Errorf("draft class never shed: the spike did not exercise admission control (CHAOS_SEED=%d)", seed)
			}
			// Bounded queue wait: the whole spike is M× capacity of
			// ~10ms jobs, so even the last-admitted submission should
			// clear in well under M×10ms×capacity. 5s is an order of
			// magnitude of slack on top of any observed run — tripping
			// it means queueing went quadratic or a retry spiral hid
			// behind the latency numbers.
			if maxWait := 5 * time.Second; res.P99Ms > float64(maxWait/time.Millisecond) {
				t.Errorf("submission p99 = %.1fms, want < %v (CHAOS_SEED=%d)",
					res.P99Ms, maxWait, seed)
			}
		})
	}
}

// TestDeadlineSpikeNoChaos runs the fault-free spike: same load shape,
// no injected faults, so a regression here isolates the admission layer
// from the redelivery machinery.
func TestDeadlineSpikeNoChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full-platform spike; skipped in -short")
	}
	res, err := Run(spike("deadline-spike", 1))
	if err != nil {
		t.Fatalf("%v", err)
	}
	t.Logf("spike: %s", res)
	if res.SubmitOK != res.Submissions || res.SubmitShed != 0 || res.LostJobs != 0 {
		t.Errorf("spike outcome: ok=%d/%d shed=%d lost=%d; want all-ok/0/0",
			res.SubmitOK, res.Submissions, res.SubmitShed, res.LostJobs)
	}
	if res.SubmitRetries != 0 {
		t.Errorf("submit_retries = %d without chaos, want 0 (nothing should 503)", res.SubmitRetries)
	}
	if res.ReadShed == 0 || res.DraftShed == 0 {
		t.Errorf("read_shed=%d draft_shed=%d; the spike must shed both low classes",
			res.ReadShed, res.DraftShed)
	}
}

// TestScenarioDefaults pins the calibration so a stray edit to the
// workload model or the spike shows up as a test diff, not as a silently
// weaker soak.
func TestScenarioDefaults(t *testing.T) {
	if m := SpikeMultiplier(); m < 10 {
		t.Errorf("SpikeMultiplier() = %.1f, want >= 10 (Figure 1 peak/trough)", m)
	}
	if s := chaosSpike(77); s.Seed != 77 || !s.Chaos || s.FaultRate <= 0 {
		t.Errorf("chaos-spike must arm faults from its seed: seed=%d chaos=%v rate=%v", s.Seed, s.Chaos, s.FaultRate)
	}
}
