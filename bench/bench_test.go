package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"webgpu/internal/trace"
)

// benchmarkJSON mirrors the file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON keeps spec.go and BENCHMARK.json identical
// and inside the limits the driver refuses a file beyond.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "-C", "bench", "."}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command = %v, want %v", f.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths = %v, want %v", f.Paths, want)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", f.RunSeconds, defaultSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(f.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		name(w.name)
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %+v", i, f.Workloads[i], w)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(f.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		name(m.name)
		got := f.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go has %+v", i, got, m)
		}
		if !unitRE.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v outside the driver's limits", m.name, m.unit, m.bound)
		}
		if m.name == "setup_s" {
			hasSetup = m.unit == "s" && m.better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (at most 128)", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name(m.name)
		got := f.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go has %+v", i, got, m)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("per-layer %s: unit %q outside the driver's limits", m.name, m.unit)
		}
	}
	for n := range exactCounts {
		if !seen[n] {
			t.Errorf("exact count %q is not a metric", n)
		}
	}
}

// TestGeneratorsAreDeterministic: the same seed gives a byte-identical
// request list, another seed another list.
func TestGeneratorsAreDeterministic(t *testing.T) {
	take := func(next func() (jobOp, bool)) string {
		var sb strings.Builder
		for i := 0; i < 200; i++ {
			op, ok := next()
			if !ok {
				break
			}
			fmt.Fprintf(&sb, "POST %s want=%q %s\n", op.path, op.wantIdent, op.body)
		}
		return sb.String()
	}
	lists := map[string]func(seed int64) string{
		warmMix:       func(seed int64) string { return take(warmMixGen(seed, 0)) + take(warmMixGen(seed, 1)) },
		compileUnique: func(seed int64) string { return take(compileUniqueGen(seed, 0)) + take(compileUniqueGen(seed, 1)) },
		restartWarm:   func(seed int64) string { return take(sliceGen(restartSources(seed, 300), 0, 1)) },
		interactiveMix: func(seed int64) string {
			var sb strings.Builder
			for _, op := range fillPlan(seed, 0.1) {
				fmt.Fprintf(&sb, "user %d attempt=%v\n", op.user, op.attempt)
			}
			drafts := draftGen(seed)
			for i := 0; i < 50; i++ {
				sb.WriteString(drafts())
			}
			h := studentPlan(seed)
			sb.WriteString(strings.Repeat("s", h.saves) + strings.Repeat("a", h.attempts))
			return sb.String()
		},
	}
	for name, list := range lists {
		a, b, c := list(7), list(7), list(8)
		if a == "" || a != b {
			t.Errorf("%s: the same seed gave two different request lists", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", name)
		}
	}

	// compile-unique never repeats a source, across students too, and a
	// fifth of its sources are broken on purpose.
	seen := map[string]bool{}
	broken := 0
	for student := 0; student < students; student++ {
		next := compileUniqueGen(7, student)
		for i := 0; i < 500; i++ {
			op, _ := next()
			if seen[op.src] {
				t.Fatalf("compile-unique repeated a source: student %d op %d", student, i)
			}
			seen[op.src] = true
			if op.wantIdent != "" {
				broken++
			}
		}
	}
	if share := float64(broken) / float64(len(seen)); math.Abs(share-1.0/brokenEvery) > 0.01 {
		t.Errorf("compile-unique: %.1f%% of sources broken, want one in %d", share*100, brokenEvery)
	}
}

func smokeConfig(t *testing.T, workload string, traced bool) config {
	seconds := 0.3
	if traced {
		seconds = 0.8 // two windows of a quarter each
	}
	return config{workload: workload, seed: 11, seconds: seconds, trace: traced,
		scale: 0.01, outDir: t.TempDir(), log: io.Discard}
}

// checkMetrics demands every metric of spec, finite, in its declared unit.
func checkMetrics(t *testing.T, res result, spec []metricSpec, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(spec) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(spec))
	}
	for _, s := range spec {
		m, ok := res.Metrics[s.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", s.name)
		case m.Unit != s.unit:
			t.Errorf("metric %s in %q, declared %q", s.name, m.Unit, s.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", s.name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must never be 0", s.name, m.Value)
		}
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at a
// hundredth of its size, with every check the full run makes.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.name, func(t *testing.T) {
			res, err := runOnce(smokeConfig(t, w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd, true)

			cfg := smokeConfig(t, w.name, true)
			res, err = runOnce(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer, false)
			if w.name == restartWarm {
				if got := res.Metrics["progcache.recompiles"].Value; got != 0 {
					t.Errorf("restart-warm recompiled %v sources, want 0", got)
				}
				if got := res.Metrics["progcache.hit_ratio"].Value; got != 0 {
					t.Errorf("restart-warm hit the memory cache (ratio %v): a source was compiled twice", got)
				}
			}
			if w.name == interactiveMix {
				if got := res.Metrics["loadgen.read_p50_ms"].Value; got <= 0 {
					t.Errorf("interactive-mix read_p50_ms = %v", got)
				}
			}
			if _, err := os.Stat(traceFile(cfg)); err != nil {
				t.Errorf("traced run left no span file: %v", err)
			}
		})
	}
}

// TestExactCountsRepeat: counts the program makes on fixed inputs must not
// move between two repetitions in one process.
func TestExactCountsRepeat(t *testing.T) {
	cfg := config{seed: 11, scale: 0.01, outDir: t.TempDir(), log: io.Discard}
	a, err := runLayers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLayers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name := range exactCounts {
		if a.metrics[name] <= 0 || a.metrics[name] != b.metrics[name] {
			t.Errorf("%s: %v then %v", name, a.metrics[name], b.metrics[name])
		}
	}
}

// TestSplitJobSumsToTurnaround: whatever the spans, a job's stages add up
// to its turnaround, because hop and webserver are remainders.
func TestSplitJobSumsToTurnaround(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	dur := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	jt := jobTrace{Start: t0, Dur: dur(30), Spans: []trace.Span{
		{Name: "dispatch", Start: at(1), Dur: dur(26)},
		{Name: "queue_wait", Start: at(2), Dur: dur(4)},
		{Name: "admission", Start: at(6), Dur: dur(1)},
		{Name: "scan", Start: at(7), Dur: dur(1)},
		{Name: "compile", Start: at(8), Dur: dur(2), Attrs: map[string]string{"cache": "hit"}},
		{Name: "kernelcheck", Start: at(10), Dur: dur(12)},
		{Name: "exec[dataset=0]", Start: at(10), Dur: dur(5)},
		{Name: "exec[dataset=1]", Start: at(10), Dur: dur(3)},
		{Name: "exec[dataset=2]", Start: at(10), Dur: dur(4)},
		{Name: "grade", Start: at(27), Dur: dur(1)},
	}}
	s, ok := splitJob(jt)
	if !ok {
		t.Fatal("no dispatch span found")
	}
	// Slots: {5} and {3,4}: the stage lasts 7 ms; analysis ends at 22,
	// 5 ms after it.
	if s.exec != dur(7) || s.kernelcheck != dur(5) || s.cache != "hit" {
		t.Errorf("exec %v kernelcheck %v cache %q", s.exec, s.kernelcheck, s.cache)
	}
	sum := s.webserver + s.hop + s.queueWait + s.admission + s.scan + s.compile + s.exec + s.kernelcheck + s.grade
	if sum != jt.Dur {
		t.Errorf("stages sum to %v, turnaround is %v", sum, jt.Dur)
	}
}

// TestQuartileSpread pins the spread to what Python's
// statistics.quantiles(values, n=4) gives, extrapolation included.
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{12, 10}, (12.5 - 9.5) / 11},
		{[]float64{5}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
