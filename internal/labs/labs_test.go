package labs

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webgpu/internal/markdown"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

var update = flag.Bool("update", false, "rewrite README.md's lab table and testdata/outcomes")

// TestCatalogDocumented keeps README.md's lab table equal to All().
func TestCatalogDocumented(t *testing.T) {
	var b strings.Builder
	b.WriteString("| # | ID | Lab | Courses | Datasets |\n|---|---|---|---|---|\n")
	for _, l := range All() {
		courses := make([]string, len(l.Courses))
		for i, c := range l.Courses {
			courses[i] = string(c)
		}
		fmt.Fprintf(&b, "| %d | `%s` | %s | %s | %d |\n", l.Number, l.ID, l.Name, strings.Join(courses, ", "), l.NumDatasets)
	}
	if err := markdown.SyncBlock("../../README.md", "gen:labs", b.String(), *update); err != nil {
		t.Error(err)
	}
}

func TestCatalogComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("catalog has %d labs, want 15 (Table II)", len(all))
	}
	seen := map[int]bool{}
	for _, l := range all {
		if seen[l.Number] {
			t.Errorf("duplicate lab number %d", l.Number)
		}
		seen[l.Number] = true
		if l.Name == "" || l.Summary == "" || l.Description == "" {
			t.Errorf("lab %s missing documentation", l.ID)
		}
		if l.Skeleton == "" || l.Reference == "" {
			t.Errorf("lab %s missing skeleton or reference", l.ID)
		}
		if l.NumDatasets <= 0 {
			t.Errorf("lab %s has no datasets", l.ID)
		}
		if len(l.Courses) == 0 {
			t.Errorf("lab %s used by no course", l.ID)
		}
		if l.MaxPoints() <= 0 {
			t.Errorf("lab %s has non-positive max points", l.ID)
		}
	}
	for n := 1; n <= 15; n++ {
		if !seen[n] {
			t.Errorf("missing lab number %d", n)
		}
	}
}

func TestByIDAndCourses(t *testing.T) {
	if ByID("vector-add") == nil {
		t.Fatal("vector-add not found")
	}
	if ByID("no-such-lab") != nil {
		t.Fatal("bogus id resolved")
	}
	hpp := ForCourse(CourseHPP)
	if len(hpp) < 7 {
		t.Errorf("HPP uses %d labs, expected at least 7", len(hpp))
	}
	for _, l := range hpp {
		if !l.UsedBy(CourseHPP) {
			t.Errorf("ForCourse returned %s which is not an HPP lab", l.ID)
		}
	}
	if ByID("mpi-stencil").UsedBy(CourseHPP) {
		t.Error("mpi-stencil should not be an HPP lab")
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	for _, l := range All() {
		a, err := l.Generate(0)
		if err != nil {
			t.Fatalf("%s: %v", l.ID, err)
		}
		b, err := l.Generate(0)
		if err != nil {
			t.Fatalf("%s: %v", l.ID, err)
		}
		if string(a.Expected.Data) != string(b.Expected.Data) {
			t.Errorf("%s: dataset 0 not deterministic", l.ID)
		}
		if len(a.Inputs) == 0 {
			t.Errorf("%s: dataset has no inputs", l.ID)
		}
	}
}

// TestReferenceSolutionsPass is the heart of the catalog test: every lab's
// instructor reference solution must compile and pass every dataset. This
// exercises the full compiler + simulator + harness stack for all 15 labs.
func TestReferenceSolutionsPass(t *testing.T) {
	for _, l := range All() {
		l := l
		t.Run(l.ID, func(t *testing.T) {
			t.Parallel()
			devices := NewDeviceSet(maxI(l.NumGPUs, 1))
			for ds := 0; ds < l.NumDatasets; ds++ {
				o := Run(context.Background(), l, l.Reference, ds, devices, 0)
				if !o.Compiled {
					t.Fatalf("dataset %d: reference failed to compile: %s", ds, o.CompileError)
				}
				if o.RuntimeError != "" {
					t.Fatalf("dataset %d: runtime error: %s", ds, o.RuntimeError)
				}
				if !o.Correct {
					t.Fatalf("dataset %d: reference marked incorrect: %s", ds, o.CheckMessage)
				}
				if o.SimTime <= 0 {
					t.Errorf("dataset %d: no simulated GPU time recorded", ds)
				}
			}
		})
	}
}

// TestSkeletonsCompileButFail: the unmodified skeletons must compile (so
// students start from a green compile) but must not pass the datasets.
func TestSkeletonsCompileButFail(t *testing.T) {
	for _, l := range All() {
		l := l
		t.Run(l.ID, func(t *testing.T) {
			t.Parallel()
			o := CompileOnly(l, l.Skeleton)
			if !o.Compiled {
				t.Fatalf("skeleton does not compile: %s", o.CompileError)
			}
			if l.ID == "device-query" {
				return // the demo lab's skeleton is intentionally complete
			}
			devices := NewDeviceSet(maxI(l.NumGPUs, 1))
			run := Run(context.Background(), l, l.Skeleton, 0, devices, 0)
			if run.Correct {
				t.Errorf("empty skeleton passes dataset 0")
			}
		})
	}
}

func TestRunReportsCompileError(t *testing.T) {
	l := ByID("vector-add")
	o := Run(context.Background(), l, "__global__ void vecAdd(float *a { }", 0, NewDeviceSet(1), 0)
	if o.Compiled {
		t.Fatal("broken source compiled")
	}
	if o.CompileError == "" {
		t.Fatal("no compile error message")
	}
	if o.Ran || o.Correct {
		t.Fatal("broken source ran")
	}
}

func TestRunReportsRuntimeError(t *testing.T) {
	l := ByID("vector-add")
	src := `
__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = in1[i] + in2[i]; // missing bounds check
}
`
	o := Run(context.Background(), l, src, 0, NewDeviceSet(1), 0)
	if !o.Compiled {
		t.Fatalf("compile failed: %s", o.CompileError)
	}
	if o.RuntimeError == "" {
		t.Fatal("out-of-bounds access not reported")
	}
	if !strings.Contains(o.RuntimeError, "illegal memory access") {
		t.Errorf("error = %q", o.RuntimeError)
	}
}

func TestRunReportsWrongAnswer(t *testing.T) {
	l := ByID("vector-add")
	src := `
__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) out[i] = in1[i] - in2[i]; // subtract instead of add
}
`
	o := Run(context.Background(), l, src, 0, NewDeviceSet(1), 0)
	if !o.Ran {
		t.Fatalf("run failed: %s", o.RuntimeError)
	}
	if o.Correct {
		t.Fatal("wrong answer accepted")
	}
	if !strings.Contains(o.CheckMessage, "did not match") {
		t.Errorf("message = %q", o.CheckMessage)
	}
}

func TestRunStepLimit(t *testing.T) {
	l := ByID("vector-add")
	src := `
__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  float x = 0.0f;
  while (1) { x += 1.0f; }
  if (i < len) out[i] = x;
}
`
	o := Run(context.Background(), l, src, 0, NewDeviceSet(1), 50000)
	if o.RuntimeError == "" || !strings.Contains(o.RuntimeError, "time limit") {
		t.Errorf("spin loop not limited: %+v", o)
	}
}

func TestRunAllCountsDatasets(t *testing.T) {
	l := ByID("scatter-to-gather")
	outs := RunAll(context.Background(), l, l.Reference, NewDeviceSet(1), 0)
	if len(outs) != l.NumDatasets {
		t.Fatalf("RunAll returned %d outcomes, want %d", len(outs), l.NumDatasets)
	}
	for i, o := range outs {
		if !o.Correct {
			t.Errorf("dataset %d failed: %s %s", i, o.RuntimeError, o.CheckMessage)
		}
	}
}

func TestKeywordsPresent(t *testing.T) {
	l := ByID("tiled-matmul")
	got := KeywordsPresent(l, l.Reference)
	if len(got) != 2 {
		t.Errorf("reference keywords = %v, want both", got)
	}
	// Keywords inside comments do not count (preprocessed scan).
	commented := "__global__ void matrixMultiplyShared(float *A, float *B, float *C, int a, int b, int c) {\n// __shared__ __syncthreads\n}"
	if got := KeywordsPresent(l, commented); len(got) != 0 {
		t.Errorf("commented keywords counted: %v", got)
	}
}

func TestTraceVisibleInOutcome(t *testing.T) {
	l := ByID("vector-add")
	o := Run(context.Background(), l, l.Reference, 0, NewDeviceSet(1), 0)
	if !strings.Contains(o.Trace, "input length") {
		t.Errorf("trace missing wbLog output:\n%s", o.Trace)
	}
	if !strings.Contains(o.Trace, "Performing CUDA computation") {
		t.Errorf("trace missing compute timer:\n%s", o.Trace)
	}
}

func TestDeviceResetBetweenRuns(t *testing.T) {
	l := ByID("vector-add")
	devs := NewDeviceSet(1)
	_ = Run(context.Background(), l, l.Reference, 0, devs, 0)
	if devs[0].AllocCount() != 0 {
		t.Errorf("device leaked %d allocations after run", devs[0].AllocCount())
	}
}

// TestOutcomeKernelsOnReusedDevice: RunCompiled marks the device's launch
// log with LaunchCount before the harness runs and reports the launches
// past the mark, so on a long-lived worker device every outcome must list
// exactly its own kernels and the mark must stay a valid log position.
func TestOutcomeKernelsOnReusedDevice(t *testing.T) {
	kernelNames := func(o *Outcome) string {
		var names []string
		for _, k := range o.Kernels {
			names = append(names, k.Name)
		}
		return strings.Join(names, ",")
	}
	devs := NewDeviceSet(1)
	total := 0
	for _, id := range []string{"reduction-scan", "vector-add", "reduction-scan"} {
		l := ByID(id)
		o := Run(context.Background(), l, l.Reference, 0, devs, 0)
		if !o.Correct {
			t.Fatalf("%s: reference failed on a reused device: %s%s%s", id, o.CompileError, o.RuntimeError, o.CheckMessage)
		}
		fresh := Run(context.Background(), l, l.Reference, 0, NewDeviceSet(1), 0)
		if got, want := kernelNames(o), kernelNames(fresh); got != want || want == "" {
			t.Errorf("%s: kernels on reused device = %q, on fresh device = %q", id, got, want)
		}
		total += len(o.Kernels)
		if n, logged := devs[0].LaunchCount(), len(devs[0].Launches()); n != total || logged != total {
			t.Fatalf("%s: LaunchCount = %d, len(Launches) = %d, want both %d", id, n, logged, total)
		}
	}
}

// TestReferencesRunOnWarpEngine: every reference solution and example
// kernel compiles, which includes lowering to the warp engine's bytecode.
func TestReferencesRunOnWarpEngine(t *testing.T) {
	check := func(name, src string, dialect minicuda.Dialect) {
		prog, err := minicuda.Compile(src, dialect)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if n := prog.InstructionCount(); n <= 0 {
			t.Errorf("%s: InstructionCount = %d, want > 0", name, n)
		}
	}
	for _, l := range All() {
		check(l.ID, l.Reference, l.Dialect)
	}
	paths, err := filepath.Glob("../../examples/kernels/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example kernels found: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		dialect := minicuda.DialectCUDA
		if filepath.Ext(p) == ".cl" {
			dialect = minicuda.DialectOpenCL
		}
		check(p, string(src), dialect)
	}
}

func TestRubricMaxPoints(t *testing.T) {
	r := Rubric{CompilePoints: 10, DatasetPoints: 15, KeywordPoints: 5,
		Keywords: []string{"a", "b"}, QuestionPoints: 5}
	if got := r.MaxPoints(4, 2); got != 10+60+10+10 {
		t.Errorf("MaxPoints = %d", got)
	}
}

func TestMPIStencilRequirements(t *testing.T) {
	l := ByID("mpi-stencil")
	if l.NumGPUs != 2 {
		t.Errorf("NumGPUs = %d", l.NumGPUs)
	}
	found := map[string]bool{}
	for _, r := range l.Requirements {
		found[r] = true
	}
	if !found[ReqMPI] || !found[ReqMultiGPU] {
		t.Errorf("requirements = %v", l.Requirements)
	}
	// Running with one GPU must fail gracefully.
	o := Run(context.Background(), l, l.Reference, 0, NewDeviceSet(1), 0)
	if o.RuntimeError == "" || !strings.Contains(o.RuntimeError, "GPUs") {
		t.Errorf("single-GPU run not rejected: %+v", o)
	}
}

func TestDatasetRangeChecked(t *testing.T) {
	l := ByID("vector-add")
	o := Run(context.Background(), l, l.Reference, 99, NewDeviceSet(1), 0)
	if o.RuntimeError == "" {
		t.Error("out-of-range dataset accepted")
	}
}

func TestOpenCLLabUsesOpenCLDialect(t *testing.T) {
	l := ByID("opencl-vector-add")
	// CUDA-style source must fail to compile under this lab.
	o := CompileOnly(l, "__global__ void vadd(float *a, float *b, float *r, int n) {}")
	if o.Compiled {
		t.Error("CUDA source compiled under OpenCL lab")
	}
}

func TestEqualizeOracleProperties(t *testing.T) {
	pix := []byte{100, 100, 120, 140, 160, 160, 160, 180}
	out := equalizeOracle(pix)
	if len(out) != len(pix) {
		t.Fatal("length changed")
	}
	// Equalization is monotone: equal inputs map to equal outputs, and
	// ordering is preserved.
	for i := range pix {
		for j := range pix {
			if pix[i] < pix[j] && out[i] > out[j] {
				t.Errorf("monotonicity violated: %d->%d vs %d->%d", pix[i], out[i], pix[j], out[j])
			}
			if pix[i] == pix[j] && out[i] != out[j] {
				t.Errorf("equal pixels diverged")
			}
		}
	}
	// The maximum pixel maps to 255.
	maxIn, maxOut := byte(0), byte(0)
	for i := range pix {
		if pix[i] >= maxIn {
			maxIn = pix[i]
			maxOut = out[i]
		}
	}
	if maxOut != 255 {
		t.Errorf("max pixel maps to %d, want 255", maxOut)
	}
}

func TestTableIIMatrix(t *testing.T) {
	// Spot-check the course matrix against the paper's Table II pattern.
	checks := []struct {
		id     string
		course Course
		want   bool
	}{
		{"vector-add", CourseHPP, true},
		{"vector-add", CourseECE598, false},
		{"tiled-matmul", CourseECE408, true},
		{"opencl-vector-add", CourseHPP, true},
		{"opencl-vector-add", CourseECE408, false},
		{"sgemm", CourseECE598, true},
		{"sgemm", CourseHPP, false},
		{"spmv", CoursePUMPS, true},
		{"bfs-queuing", CourseECE598, true},
		{"mpi-stencil", CourseECE598, true},
		{"mpi-stencil", CoursePUMPS, false},
	}
	for _, c := range checks {
		if got := ByID(c.id).UsedBy(c.course); got != c.want {
			t.Errorf("%s used by %s = %v, want %v", c.id, c.course, got, c.want)
		}
	}
}

func TestBFSOracleHandlesUnreachable(t *testing.T) {
	// 3 nodes, only 0->1; node 2 unreachable.
	rowPtr := []int32{0, 1, 1, 1}
	colIdx := []int32{1}
	lv := bfsOracle(rowPtr, colIdx, 0)
	if lv[0] != 0 || lv[1] != 1 || lv[2] != -1 {
		t.Errorf("levels = %v", lv)
	}
}

func TestStencilOracleBoundary(t *testing.T) {
	in := []float32{1, 1, 1, 1}
	out := stencilOracle(in, 2, 2)
	// Corner cell: 0.5*1 + 0.125*(0+1+0+1) = 0.75.
	if out[0] != 0.75 {
		t.Errorf("corner = %v, want 0.75", out[0])
	}
}

func TestWBDatasetShapes(t *testing.T) {
	ds, err := ByID("spmv").Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wb.ParseCSR(ds.Input("matrix.csr"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 32 {
		t.Errorf("rows = %d", m.Rows)
	}
	if int(m.RowPtr[m.Rows]) != len(m.Vals) {
		t.Errorf("rowptr end %d != nnz %d", m.RowPtr[m.Rows], len(m.Vals))
	}
}

// TestConvolutionSameOnLazyConstMemory: the constant-memory lab runs the
// same — verdict, simulated time, per-kernel counters — whether its
// device's constant memory exists before the harness first writes the
// mask (the old eager allocation) or is created by that write.
func TestConvolutionSameOnLazyConstMemory(t *testing.T) {
	l := ByID("convolution-2d")
	for ds := 0; ds < l.NumDatasets; ds++ {
		lazy := Run(context.Background(), l, l.Reference, ds, NewDeviceSet(1), 0)
		eager := NewDeviceSet(1)
		if err := eager[0].CopyToConst(0, nil); err != nil { // allocate up front
			t.Fatal(err)
		}
		want := Run(context.Background(), l, l.Reference, ds, eager, 0)
		if !lazy.Correct || len(lazy.Kernels) == 0 {
			t.Fatalf("dataset %d: correct=%v (%s), %d kernels", ds, lazy.Correct, lazy.CheckMessage, len(lazy.Kernels))
		}
		if lazy.SimTime != want.SimTime || !reflect.DeepEqual(lazy.Kernels, want.Kernels) {
			t.Errorf("dataset %d: lazy constant memory ran %v %+v, eager %v %+v",
				ds, lazy.SimTime, lazy.Kernels, want.SimTime, want.Kernels)
		}
	}
}

// TestKernelStatsRepeatable: replaying a reference solution on a dataset
// gives every launch the same counters, SimCycles included — a block's
// warps take turns in a fixed order, so what a block costs is a function
// of the program and its input, not of the host's scheduling. Blocks still
// run concurrently, and the one launch whose blocks race each other for
// output slots (input-binning's scatterBin claims them with a global
// atomicAdd, so which addresses a warp stores to, and how they coalesce,
// depends on which block got there first) is compared without the two
// counters that follow the addresses.
func TestKernelStatsRepeatable(t *testing.T) {
	const replays = 20
	for _, l := range All() {
		prog, err := minicuda.Compile(l.Reference, l.Dialect)
		if err != nil {
			t.Fatalf("%s: %v", l.ID, err)
		}
		for ds := 0; ds < l.NumDatasets; ds++ {
			var want []KernelStats
			for r := 0; r < replays; r++ {
				o := RunCompiled(context.Background(), l, prog, ds, NewDeviceSet(maxI(l.NumGPUs, 1)), 0)
				if !o.Correct {
					t.Fatalf("%s dataset %d: %s %s", l.ID, ds, o.RuntimeError, o.CheckMessage)
				}
				for i := range o.Kernels {
					if k := &o.Kernels[i]; k.Name == "scatterBin" {
						k.GlobalTx, k.SimCycles = 0, 0
					}
				}
				if r == 0 {
					want = o.Kernels
				} else if !reflect.DeepEqual(o.Kernels, want) {
					t.Errorf("%s dataset %d, replay %d:\n got %+v\nwant %+v", l.ID, ds, r, o.Kernels, want)
					break
				}
			}
		}
	}
}

// TestTraceRepeatable: the run log an outcome stores is a function of the
// run — its copy and compute spans are priced by the cost model, not timed
// — so two replays of a reference store the same text. input-binning is
// exempt for TestKernelStatsRepeatable's reason: scatterBin's cycles, and
// so its compute span, depend on how its blocks interleave.
func TestTraceRepeatable(t *testing.T) {
	for _, l := range All() {
		if l.ID == "input-binning" {
			continue
		}
		prog, err := minicuda.Compile(l.Reference, l.Dialect)
		if err != nil {
			t.Fatalf("%s: %v", l.ID, err)
		}
		for ds := 0; ds < l.NumDatasets; ds++ {
			run := func() string {
				o := RunCompiled(context.Background(), l, prog, ds, NewDeviceSet(maxI(l.NumGPUs, 1)), 0)
				if !o.Correct {
					t.Fatalf("%s dataset %d: %s %s", l.ID, ds, o.RuntimeError, o.CheckMessage)
				}
				return o.Trace
			}
			if a, b := run(), run(); a != b {
				t.Errorf("%s dataset %d: replay's trace differs:\n%s\nvs\n%s", l.ID, ds, a, b)
			}
		}
	}
}

// TestOutcomeJSONRoundTrip: the fields an outcome leaves out of its JSON
// when they are zero come back as zero, so what the broker carries and the
// database stores decodes to what the worker produced — for a passing run
// (whose error fields and most shared/atomic counters are absent), a
// compile error and a cancelled dataset.
func TestOutcomeJSONRoundTrip(t *testing.T) {
	l := ByID("vector-add")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name   string
		o      *Outcome
		absent []string // keys the encoding must not carry
	}{
		{"passing", Run(context.Background(), l, l.Reference, 0, NewDeviceSet(1), 0),
			[]string{"CompileError", "RuntimeError", "Canceled", "SharedOps", "Atomics"}},
		{"compile error", CompileOnly(l, "__global__ void broken( {"),
			[]string{"RuntimeError", "Canceled"}},
		{"cancelled", Run(canceled, l, l.Reference, 0, NewDeviceSet(1), 0),
			[]string{"CompileError"}},
	}
	if o := cases[0].o; !o.Correct || len(o.Kernels) == 0 {
		t.Fatalf("passing case did not pass: %+v", o)
	}
	if o := cases[1].o; o.CompileError == "" {
		t.Fatalf("compile-error case compiled: %+v", o)
	}
	if o := cases[2].o; !o.Canceled {
		t.Fatalf("cancelled case ran: %+v", o)
	}
	for _, tc := range cases {
		raw, err := json.Marshal(tc.o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, key := range tc.absent {
			if strings.Contains(string(raw), `"`+key+`"`) {
				t.Errorf("%s: encoding carries the empty field %s: %s", tc.name, key, raw)
			}
		}
		var back Outcome
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(&back, tc.o) {
			t.Errorf("%s: round trip changed the outcome:\n got %+v\nwant %+v", tc.name, &back, tc.o)
		}
	}
}
