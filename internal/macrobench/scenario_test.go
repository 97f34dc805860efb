// Package macrobench holds the whole-platform soak tests: each boots a
// full deployment — web tier, admission control, broker, worker fleet,
// grader — and drives it over real HTTP with a population of submitters,
// readers and live-draft pushers, then asserts what a deadline rush may
// never cost: a shed or lost submission, a dead letter, a recompile after
// a restart. The package is test files only; it measures nothing that is
// kept (bench/ is where numbers come from), and the Result line a test
// logs is there to read a failure by.
//
// Scenarios are seeded and deterministic in their decisions (arrival
// jitter, chaos faults); CHAOS_SEED=<n> replays one.
//
// The deadline spike is calibrated against the paper's workload models:
// Table I enrollment (~36k registrants/offering) and the Figure 1
// activity envelope, whose Wednesday peak runs ~10× the series mean —
// that peak-to-mean ratio is the spike multiplier.
package macrobench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/overload"
	"webgpu/internal/platform"
	"webgpu/internal/sandbox"
	"webgpu/internal/workload"
)

// Scenario configures one soak run.
type Scenario struct {
	Name          string
	Seed          int64
	Workers       int
	GPUsPerWorker int

	// Submissions is the number of distinct students submitting once
	// each; zero derives it as Capacity × Multiplier.
	Submissions int
	// Multiplier scales submissions relative to worker capacity
	// (Workers × GPUsPerWorker). The deadline spike uses the Figure 1
	// peak-to-mean ratio (~10×).
	Multiplier float64

	// Readers / Drafters are the low-priority background populations:
	// each reader loops history GETs and each drafter pushes live-session
	// drafts while the spike runs, so the scenario records what the
	// admission layer sheds to protect the submissions.
	Readers  int
	Drafters int

	// Chaos arms the fault-injection registry (chaostest-style points and
	// ratios) at FaultRate for the duration of the spike; the run then
	// disables faults, redrives dead letters, and drains before checking
	// the conservation invariant.
	Chaos     bool
	FaultRate float64

	// CacheDir is the durable artifact store directory: runRestartStorm's
	// temp dir; the spike stays memory-only.
	CacheDir string

	Timeout time.Duration
}

func (s Scenario) withDefaults() Scenario {
	if s.Submissions <= 0 {
		s.Submissions = int(math.Ceil(float64(s.Capacity()) * s.Multiplier))
	}
	if s.Timeout <= 0 {
		s.Timeout = 120 * time.Second
	}
	return s
}

// Capacity is the worker pool's concurrent-job capacity.
func (s Scenario) Capacity() int { return s.Workers * s.GPUsPerWorker }

// Result is one scenario's outcome: what the tests assert on, and the
// line they log.
type Result struct {
	Name        string
	Submissions int

	// Submission-class outcomes: every submission must eventually
	// succeed; retries count transient 503s absorbed by the client.
	SubmitOK      int
	SubmitShed    int
	SubmitRetries int

	// Low-priority-class sheds are the overload layer working, not a
	// failure.
	ReadShed  int
	DraftShed int

	// Conservation: LostJobs is Broker.Unaccounted() after the drain
	// (0 = every published job is accounted for), DeadLetters what
	// remained parked after redrive (must be 0).
	LostJobs    int64
	DeadLetters int

	// Restart-storm phases: submit latency medians for the first boot's
	// cold pass, its warm re-pass (the pre-restart baseline), and the
	// rebooted platform's pass against the same store directory — plus how
	// many cached sources the reboot recompiled (must be 0) and how many
	// it served from the durable store instead.
	ColdP50Ms        float64
	PreRestartP50Ms  float64
	PostRestartP50Ms float64
	Recompiles       int64
	DiskHits         int64

	// End-to-end submission latency over HTTP, milliseconds.
	P50Ms float64
	P99Ms float64
	MaxMs float64

	DurationMs float64
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %d/%d submits ok (p50 %.1fms p99 %.1fms max %.1fms), %d read shed, %d draft shed, %d lost, %d retries, %.0fms total",
		r.Name, r.SubmitOK, r.Submissions, r.P50Ms, r.P99Ms, r.MaxMs,
		r.ReadShed, r.DraftShed, r.LostJobs, r.SubmitRetries, r.DurationMs)
}

// SpikeMultiplier is the Figure 1 peak-to-trough activity ratio: the
// factor by which the Wednesday-evening deadline rush (112 active
// students) exceeds the late-course quiet level (8) the cluster is
// provisioned for. The deadline-spike scenarios submit at this multiple
// of worker capacity (14× for the paper's model — comfortably past the
// 10× survival bar).
func SpikeMultiplier() float64 {
	m := workload.Figure1Model()
	if m.Trough <= 0 || m.Peak <= m.Trough {
		return 10
	}
	return m.Peak / m.Trough
}

// spike is the deadline rush both soak tests drive: a 2×2 pool, arrivals
// at SpikeMultiplier() times its capacity, three readers and three
// drafters competing for admission.
func spike(name string, seed int64) Scenario {
	return Scenario{Name: name, Seed: seed, Workers: 2, GPUsPerWorker: 2,
		Multiplier: SpikeMultiplier(), Readers: 3, Drafters: 3}
}

// chaosSpike is the same rush with the fault points armed.
func chaosSpike(seed int64) Scenario {
	s := spike("chaos-spike", seed)
	s.Chaos, s.FaultRate = true, 0.05
	return s
}

// newPlatform builds the deployment under test: overload limits sized to
// the scenario (pressure 1.0 = backlog at 2× capacity, so a 10× spike
// drives reads and drafts into shedding), the §III-C per-user limiter
// shortened out of the measurement's way, and chaos faults if requested.
func newPlatform(s Scenario, reg *faultinject.Registry) *platform.Platform {
	lim := sandbox.DefaultLimits()
	lim.SubmitInterval = time.Millisecond
	return platform.New(platform.Options{
		Workers:       s.Workers,
		GPUsPerWorker: s.GPUsPerWorker,
		Faults:        reg,
		Limits:        lim,
		CacheDir:      s.CacheDir,
		DispatchWait:  5 * time.Second,        // chaos: bound a lost dispatch, client retries
		Visibility:    250 * time.Millisecond, // fast redelivery of crash-abandoned leases
		Overload: &overload.Config{
			// Backlog at one full pool's worth of jobs = saturated: while
			// the spike keeps the workers busy the broker backlog pins
			// pressure at ~1.0, so reads (ShedAt 0.5) and drafts (0.75)
			// shed for the whole saturated stretch.
			QueueDepthLimit: s.Capacity(),
			Limits: map[overload.Class]overload.ClassLimit{
				// Submissions: the gate admits ahead of the pool (keeping
				// the broker fed — and its backlog honest) and the queue
				// holds the entire spike. Nothing sheds; everything waits
				// its turn.
				overload.ClassSubmission: {
					MaxConcurrent: 2 * s.Capacity(),
					MaxQueue:      s.Submissions,
					QueueTimeout:  s.Timeout,
				},
			},
		},
	})
}

// arm enables the chaostest fault points at the scenario's rate.
func arm(reg *faultinject.Registry, rate float64) {
	reg.Enable(faultinject.PointQueuePublish, faultinject.Fault{Prob: rate * 0.5})
	reg.Enable(faultinject.PointQueueAck, faultinject.Fault{Prob: rate * 0.5})
	reg.Enable(faultinject.PointQueuePoll, faultinject.Fault{Prob: rate * 0.2})
	reg.Enable(faultinject.PointDriverCrashBeforeAck, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointDriverCrashAfterPublish, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointDriverPublishResult, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointNodeCompile, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointNodeExec, faultinject.Fault{Prob: rate * 0.5})
}

// quantile reads the q-quantile from a sorted millisecond slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// summarize fills the latency fields from raw per-submit durations.
func (r *Result) summarize(latencies []time.Duration) {
	ms := make([]float64, len(latencies))
	for i, d := range latencies {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	r.P50Ms = quantile(ms, 0.50)
	r.P99Ms = quantile(ms, 0.99)
	if n := len(ms); n > 0 {
		r.MaxMs = ms[n-1]
	}
}

// jitters derives the per-submitter arrival offsets from the seed: the
// spike is front-loaded (most arrivals in the first quarter window) the
// way a deadline rush is, and fully replayable.
func jitters(seed int64, n int, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		// Square the uniform draw: density piles up near zero.
		u := rng.Float64()
		out[i] = time.Duration(u * u * float64(window))
	}
	return out
}
