package worker

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/progcache"
)

// vecAddUnused grades correctly but declares a variable it never reads —
// a hygiene finding the analyzer should attach without affecting grading.
const vecAddUnused = `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int spare = len * 2;
  if (i < len) {
    out[i] = in1[i] + in2[i];
  }
}
`

// vecAddRacy carries a provable shared-memory race: every thread stores
// s[tx] and reads s[tx + 1] with no barrier in between. (No bounds
// guard: a guarded access only rates a may-race warning.)
const vecAddRacy = `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  __shared__ float s[257];
  int tx = threadIdx.x;
  int i = blockIdx.x * blockDim.x + tx;
  s[tx] = in1[i];
  out[i] = s[tx + 1] + in2[i];
}
`

func hasDiag(diags []kernelcheck.Diagnostic, id string) bool {
	for _, d := range diags {
		if d.ID == id {
			return true
		}
	}
	return false
}

// TestAnalysisWarnDefault: the default (empty) policy attaches
// diagnostics to the result without changing the grading verdict.
func TestAnalysisWarnDefault(t *testing.T) {
	cfg := DefaultNodeConfig("kc1")
	cfg.ProgCache = progcache.New(16, nil)
	n := NewNode(cfg)

	job := refJob("j1", "vector-add", DatasetAll)
	job.Source = vecAddUnused
	res := n.Execute(context.Background(), job)
	if !res.Correct() {
		t.Fatalf("warn-policy job should grade normally: %+v", res)
	}
	if res.AnalysisBlocked {
		t.Error("warn policy must never block execution")
	}
	if !hasDiag(res.Diagnostics, kernelcheck.RuleUnused) {
		t.Errorf("diagnostics missing %s: %+v", kernelcheck.RuleUnused, res.Diagnostics)
	}
	if got := n.Metrics().Counter(kernelcheck.MetricName(kernelcheck.RuleUnused)); got < 1 {
		t.Errorf("fire counter for %s = %g, want >= 1", kernelcheck.RuleUnused, got)
	}
}

// TestAnalysisFailFastBlocks: under the fail-fast policy a provable race
// blocks execution, and the per-dataset outcomes carry the diagnostics.
func TestAnalysisFailFastBlocks(t *testing.T) {
	cfg := DefaultNodeConfig("kc2")
	cfg.ProgCache = progcache.New(16, nil)
	n := NewNode(cfg)

	job := refJob("j1", "vector-add", DatasetAll)
	job.Source = vecAddRacy
	job.AnalysisPolicy = AnalysisFailFast
	res := n.Execute(context.Background(), job)
	if !res.AnalysisBlocked {
		t.Fatalf("fail-fast job with a provable race was not blocked: %+v", res.Diagnostics)
	}
	if res.Correct() {
		t.Error("blocked job must not grade as correct")
	}
	if !hasDiag(res.Diagnostics, kernelcheck.RuleRace) {
		t.Errorf("diagnostics missing %s: %+v", kernelcheck.RuleRace, res.Diagnostics)
	}
	lab := 5 // vector-add has five datasets
	if len(res.Outcomes) != lab {
		t.Fatalf("outcomes = %d, want %d (one per dataset)", len(res.Outcomes), lab)
	}
	for _, o := range res.Outcomes {
		if !o.Compiled || o.Ran {
			t.Errorf("blocked outcome should be compiled-but-not-run: %+v", o)
		}
		if !strings.Contains(o.RuntimeError, "fail-fast") || !strings.Contains(o.RuntimeError, kernelcheck.RuleRace) {
			t.Errorf("outcome error missing the blocking diagnostics: %q", o.RuntimeError)
		}
	}
	if got := n.Metrics().Counter("jobs_analysis_blocked"); got != 1 {
		t.Errorf("jobs_analysis_blocked = %g, want 1", got)
	}

	// The same racy source under the default policy still executes.
	warn := refJob("j2", "vector-add", DatasetAll)
	warn.Source = vecAddRacy
	wres := n.Execute(context.Background(), warn)
	if wres.AnalysisBlocked {
		t.Error("default policy blocked execution")
	}
	if len(wres.Outcomes) == 0 {
		t.Fatal("default-policy job produced no outcomes")
	}
	// The kernel actually executed (and trapped on its own) rather than
	// being stopped by the analyzer.
	if strings.Contains(wres.Outcomes[0].RuntimeError, "fail-fast") {
		t.Errorf("default-policy outcome carries the fail-fast block: %q", wres.Outcomes[0].RuntimeError)
	}
	if !hasDiag(wres.Diagnostics, kernelcheck.RuleRace) {
		t.Error("default-policy result lost the race diagnostic")
	}
}

// TestAnalysisFailFastCleanRuns: fail-fast does not block a clean
// submission — warnings and info findings are not blocking.
func TestAnalysisFailFastCleanRuns(t *testing.T) {
	cfg := DefaultNodeConfig("kc3")
	cfg.ProgCache = progcache.New(16, nil)
	n := NewNode(cfg)

	job := refJob("j1", "vector-add", DatasetAll)
	job.AnalysisPolicy = AnalysisFailFast
	res := n.Execute(context.Background(), job)
	if res.AnalysisBlocked {
		t.Fatalf("clean reference was blocked: %+v", res.Diagnostics)
	}
	if !res.Correct() {
		t.Fatalf("clean reference failed under fail-fast: %+v", res)
	}
}

// TestAnalysisOff: the off policy skips the analyzer entirely.
func TestAnalysisOff(t *testing.T) {
	cfg := DefaultNodeConfig("kc4")
	cache := progcache.New(16, nil)
	cfg.ProgCache = cache
	n := NewNode(cfg)

	job := refJob("j1", "vector-add", 0)
	job.Source = vecAddUnused
	job.AnalysisPolicy = AnalysisOff
	res := n.Execute(context.Background(), job)
	if !res.Correct() {
		t.Fatalf("off-policy job failed: %+v", res)
	}
	if res.Diagnostics != nil {
		t.Errorf("off policy still produced diagnostics: %+v", res.Diagnostics)
	}
	if s := cache.Stats(); s.Analyzes != 0 {
		t.Errorf("off policy ran the analyzer: %+v", s)
	}
}

// TestAnalysisDiagnosticsCached: repeat submissions of the same source
// analyze once and hit the cached diagnostics artifact after.
func TestAnalysisDiagnosticsCached(t *testing.T) {
	cfg := DefaultNodeConfig("kc5")
	cache := progcache.New(16, nil)
	cfg.ProgCache = cache
	n := NewNode(cfg)

	for i := 0; i < 3; i++ {
		job := refJob("j", "vector-add", 0)
		job.Source = vecAddUnused
		if res := n.Execute(context.Background(), job); !res.Correct() {
			t.Fatalf("iteration %d failed: %+v", i, res)
		}
	}
	s := cache.Stats()
	if s.Analyzes != 1 {
		t.Errorf("Analyzes = %d, want 1", s.Analyzes)
	}
	if s.HitsDiagnostics != 2 {
		t.Errorf("HitsDiagnostics = %d, want 2", s.HitsDiagnostics)
	}
	// The compile-hit split is untouched by the analysis stage: three
	// jobs mean one miss and two compile hits, not four.
	if s.Misses != 1 || s.Hits != 2 {
		t.Errorf("compile counters skewed by analysis stage: %+v", s)
	}
}

// TestAnalysisRuleCountersPreregistered: every rule's fire counter
// exists at node start, before any job runs.
func TestAnalysisRuleCountersPreregistered(t *testing.T) {
	n := NewNode(DefaultNodeConfig("kc6"))
	snap := n.Metrics().PrometheusText()
	for _, r := range kernelcheck.Rules() {
		if !strings.Contains(snap, kernelcheck.MetricName(r.ID)) {
			t.Errorf("metric %s not pre-registered", kernelcheck.MetricName(r.ID))
		}
	}
}

// TestAnalysisOffCriticalPath: under the default warn policy the
// analysis overlaps dataset execution instead of extending the job's
// critical path, and under fail-fast it gates execution. Both are
// ordering properties of the pipeline, checked through the node's hook:
// a warn job whose analysis is held until its datasets are dispatched
// still finishes (an inline analysis would wait forever), and a
// fail-fast job's analysis ends before any dataset is dispatched.
func TestAnalysisOffCriticalPath(t *testing.T) {
	l := labs.ByID("tiled-matmul")
	run := func(policy string, at func(point string)) *Result {
		cfg := DefaultNodeConfig("kc7")
		cfg.ProgCache = progcache.New(64, nil)
		n := NewNode(cfg)
		n.at = at
		job := refJob("j-"+policy, l.ID, DatasetAll)
		job.Source = vecAddUnusedIn(l.Reference)
		job.AnalysisPolicy = policy
		done := make(chan *Result, 1)
		go func() { done <- n.Execute(context.Background(), job) }()
		select {
		case res := <-done:
			if !res.Correct() || !hasDiag(res.Diagnostics, kernelcheck.RuleUnused) {
				t.Fatalf("%s job: correct %v, diagnostics %v", policy, res.Correct(), res.Diagnostics)
			}
			return res
		case <-time.After(time.Minute):
			t.Fatalf("the %s job never finished: its analysis waits on a dataset dispatch that waits on it", policy)
			return nil
		}
	}

	t.Run(AnalysisWarn, func(t *testing.T) {
		dispatched := make(chan struct{})
		var once sync.Once
		run(AnalysisWarn, func(point string) {
			switch point {
			case "exec":
				once.Do(func() { close(dispatched) })
			case "analysis":
				<-dispatched
			}
		})
	})

	t.Run(AnalysisFailFast, func(t *testing.T) {
		var mu sync.Mutex
		var points []string
		run(AnalysisFailFast, func(point string) {
			mu.Lock()
			points = append(points, point)
			mu.Unlock()
		})
		if want := []string{"analysis", "analyzed", "exec"}; !reflect.DeepEqual(points, want) {
			t.Errorf("fail-fast pipeline points %v, want %v", points, want)
		}
	})
}

// vecAddUnusedIn is src with a variable its first kernel never reads, a
// warning either policy reports without blocking the job.
func vecAddUnusedIn(src string) string {
	i := strings.Index(src, "{") + 1
	return src[:i] + "\n  int spare = 2;" + src[i:]
}
