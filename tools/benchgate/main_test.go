package main

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: webgpu/internal/minicuda
cpu: Intel(R) Xeon(R) Processor
BenchmarkInterpretTiledMatMul32-8    	     300	   4000000 ns/op
BenchmarkInterpretTiledMatMul32-8    	     320	   3800000 ns/op
BenchmarkWarpVsTreeMatMul/warp-8     	     300	   3700000 ns/op
BenchmarkWarpVsTreeMatMul/tree-8     	      80	  13000000 ns/op
PASS
`

func TestParseBenchBestOfN(t *testing.T) {
	results, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	// -count>1 keeps the fastest run; the -8 GOMAXPROCS suffix is stripped.
	if got := results["BenchmarkInterpretTiledMatMul32"]; got != 3800000 {
		t.Errorf("TiledMatMul32 = %v, want best-of-n 3800000", got)
	}
	if got := results["BenchmarkWarpVsTreeMatMul/warp"]; got != 3700000 {
		t.Errorf("warp sub-benchmark = %v, want 3700000", got)
	}
}

func TestGateWithinCeilings(t *testing.T) {
	base := baseline{Benchmarks: map[string]float64{
		"BenchmarkInterpretTiledMatMul32": 8000000,
		"BenchmarkWarpVsTreeMatMul/warp":  8000000,
	}}
	results, _ := parseBench(strings.NewReader(benchOutput))
	var sb strings.Builder
	if gate(base, results, &sb) {
		t.Fatalf("gate tripped within ceilings:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "ok") {
		t.Errorf("output missing ok lines:\n%s", sb.String())
	}
}

func TestGateRegression(t *testing.T) {
	base := baseline{Benchmarks: map[string]float64{
		"BenchmarkWarpVsTreeMatMul/tree": 1000000, // far below the 13ms result
	}}
	results, _ := parseBench(strings.NewReader(benchOutput))
	var sb strings.Builder
	if !gate(base, results, &sb) {
		t.Fatal("gate did not trip on a regression")
	}
	if !strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("output missing REGRESSED:\n%s", sb.String())
	}
}

func TestGateMissingBenchmarkFails(t *testing.T) {
	// A baseline entry with no result (renamed or deleted benchmark) must
	// fail the gate, not silently skip.
	base := baseline{Benchmarks: map[string]float64{
		"BenchmarkInterpretTiledMatMul32": 8000000,
		"BenchmarkRenamedAway":            5000000,
	}}
	results, _ := parseBench(strings.NewReader(benchOutput))
	var sb strings.Builder
	if !gate(base, results, &sb) {
		t.Fatal("gate did not trip on a missing benchmark")
	}
	if !strings.Contains(sb.String(), "MISSING") || !strings.Contains(sb.String(), "BenchmarkRenamedAway") {
		t.Errorf("output missing MISSING line:\n%s", sb.String())
	}
}

// ---- Macro mode ----------------------------------------------------------------

const macroTrajectory = `{
  "schema": "webgpu-macro/v1",
  "scenarios": [
    {"name": "warm-submit", "submit_ok": 4, "submit_shed": 0, "lost_jobs": 0,
     "dead_letters": 0, "p50_ms": 8.1, "p99_ms": 12.4},
    {"name": "chaos-spike", "submit_ok": 56, "submit_shed": 0, "lost_jobs": 0,
     "dead_letters": 0, "p50_ms": 90.0, "p99_ms": 220.0}
  ]
}`

func mustParseMacro(t *testing.T, raw string) macroFile {
	t.Helper()
	mf, err := parseMacro([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

func TestMacroGateWithinCeilings(t *testing.T) {
	base := baseline{Macro: map[string]macroCeiling{
		"warm-submit": {P50Ms: 200, P99Ms: 500},
		"chaos-spike": {P50Ms: 2000, P99Ms: 5000},
	}}
	var sb strings.Builder
	if gateMacro(base, mustParseMacro(t, macroTrajectory), &sb) {
		t.Fatalf("macro gate tripped within ceilings:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "macro/warm-submit") {
		t.Errorf("output missing per-scenario ok line:\n%s", sb.String())
	}
}

func TestMacroGateMissingScenarioFails(t *testing.T) {
	// A baselined scenario absent from the trajectory (renamed, or the
	// bench silently stopped running it) must fail, not skip.
	base := baseline{Macro: map[string]macroCeiling{
		"deadline-spike": {P99Ms: 5000},
	}}
	var sb strings.Builder
	if !gateMacro(base, mustParseMacro(t, macroTrajectory), &sb) {
		t.Fatal("macro gate did not trip on a missing scenario")
	}
	if !strings.Contains(sb.String(), "MISSING") || !strings.Contains(sb.String(), "deadline-spike") {
		t.Errorf("output missing MISSING line:\n%s", sb.String())
	}
}

func TestMacroGateP99CeilingTrip(t *testing.T) {
	base := baseline{Macro: map[string]macroCeiling{
		"chaos-spike": {P50Ms: 2000, P99Ms: 100}, // far below the 220ms result
	}}
	var sb strings.Builder
	if !gateMacro(base, mustParseMacro(t, macroTrajectory), &sb) {
		t.Fatal("macro gate did not trip on a p99 regression")
	}
	if !strings.Contains(sb.String(), "REGRESSED") || !strings.Contains(sb.String(), "p99") {
		t.Errorf("output missing p99 REGRESSED line:\n%s", sb.String())
	}
}

func TestMacroGateLostJobsAndShedAreHardZero(t *testing.T) {
	lossy := `{
  "schema": "webgpu-macro/v1",
  "scenarios": [
    {"name": "chaos-spike", "submit_ok": 50, "submit_shed": 3, "lost_jobs": 2,
     "dead_letters": 1, "p50_ms": 10, "p99_ms": 20}
  ]
}`
	base := baseline{Macro: map[string]macroCeiling{
		"chaos-spike": {P50Ms: 2000, P99Ms: 5000}, // latency fine; invariants not
	}}
	var sb strings.Builder
	if !gateMacro(base, mustParseMacro(t, lossy), &sb) {
		t.Fatal("macro gate did not trip on shed submissions / lost jobs")
	}
	for _, want := range []string{"submit_shed", "lost_jobs", "dead_letters"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %s trip:\n%s", want, sb.String())
		}
	}
}

func TestMacroGateRecompilesAreHardZero(t *testing.T) {
	// The restart-storm contract: latency may be fine, but a rebooted
	// platform recompiling cached sources trips the gate.
	storm := `{
  "schema": "webgpu-macro/v1",
  "scenarios": [
    {"name": "restart-storm", "submit_ok": 8, "recompiles": 8,
     "p50_ms": 10, "p99_ms": 20}
  ]
}`
	base := baseline{Macro: map[string]macroCeiling{
		"restart-storm": {P50Ms: 2000, P99Ms: 5000, MaxRecompiles: 0},
	}}
	var sb strings.Builder
	if !gateMacro(base, mustParseMacro(t, storm), &sb) {
		t.Fatal("macro gate did not trip on post-restart recompiles")
	}
	if !strings.Contains(sb.String(), "recompiles") {
		t.Errorf("output missing recompiles trip:\n%s", sb.String())
	}
}

func TestParseMacroRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"truncated JSON": `{"schema": "webgpu-macro/v1", "scenarios": [`,
		"wrong schema":   `{"schema": "webgpu-macro/v999", "scenarios": [{"name": "x"}]}`,
		"no scenarios":   `{"schema": "webgpu-macro/v1", "scenarios": []}`,
		"unnamed row":    `{"schema": "webgpu-macro/v1", "scenarios": [{"p50_ms": 1}]}`,
	}
	for name, raw := range cases {
		if _, err := parseMacro([]byte(raw)); err == nil {
			t.Errorf("%s: parseMacro accepted malformed input", name)
		}
	}
}

func TestMacroGateUnknownScenarioPassesThrough(t *testing.T) {
	// Trajectory rows without a baseline entry are not gated: adding a
	// scenario must not demand a lockstep baseline edit.
	base := baseline{Macro: map[string]macroCeiling{
		"warm-submit": {P50Ms: 200, P99Ms: 500},
	}}
	var sb strings.Builder
	if gateMacro(base, mustParseMacro(t, macroTrajectory), &sb) {
		t.Fatalf("macro gate tripped on an un-baselined scenario:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "chaos-spike") {
		t.Errorf("un-baselined scenario appeared in gate output:\n%s", sb.String())
	}
}
