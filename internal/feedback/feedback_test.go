package feedback

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
)

func runAttempt(t *testing.T, labID, src string) *labs.Outcome {
	t.Helper()
	l := labs.ByID(labID)
	n := l.NumGPUs
	if n == 0 {
		n = 1
	}
	return labs.Run(context.Background(), l, src, 0, labs.NewDeviceSet(n), 200000)
}

// analyze runs src on the lab's first dataset and analyzes the attempt as
// the hints route does: its outcome and the diagnostics of its source.
func analyze(t *testing.T, labID, src string) (*labs.Outcome, []Hint) {
	t.Helper()
	o := runAttempt(t, labID, src)
	return o, Analyze(labs.ByID(labID), o, diagsOf(labID, src))
}

func diagsOf(labID, src string) []kernelcheck.Diagnostic {
	diags, _ := kernelcheck.AnalyzeSource(src, labs.ByID(labID).Dialect)
	return diags
}

func hintCodes(hints []Hint) []string {
	out := make([]string, len(hints))
	for i, h := range hints {
		out[i] = h.Code
	}
	return out
}

func requireHint(t *testing.T, hints []Hint, code string) Hint {
	t.Helper()
	for _, h := range hints {
		if h.Code == code {
			return h
		}
	}
	t.Fatalf("hint %q not found in %v", code, hintCodes(hints))
	return Hint{}
}

func TestNilOutcome(t *testing.T) {
	hints := Analyze(labs.ByID("vector-add"), nil, nil)
	requireHint(t, hints, "run-first")
}

func TestMissingBoundsCheckHint(t *testing.T) {
	src := `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = in1[i] + in2[i];
}`
	o := runAttempt(t, "vector-add", src)
	if o.RuntimeError == "" {
		t.Fatal("expected an OOB fault")
	}
	h := requireHint(t, Analyze(labs.ByID("vector-add"), o, diagsOf("vector-add", src)), "missing-bounds-check")
	if h.Confidence < 0.9 {
		t.Errorf("no-guard kernel should give high confidence, got %v", h.Confidence)
	}
	if !strings.Contains(h.Detail, "if (i < len)") {
		t.Errorf("detail = %q", h.Detail)
	}
}

// TestBoundsHintIgnoresUnrelatedGuard: a comparison in an if that does
// not guard the faulting store leaves the hint as sure as no if at all,
// since the trap, not the text, says the access ran past the buffer.
func TestBoundsHintIgnoresUnrelatedGuard(t *testing.T) {
	_, unguarded := analyze(t, "vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = in1[i] + in2[i];
}`)
	for _, src := range []string{`__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (len < 100000) {
    out[i] = in1[i] + in2[i];
  }
}`, `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  float s = 0.0f;
  if (len > 0) s = 1.0f;
  out[i] = in1[i] + in2[i] + 0.0f * s;
}`} {
		o, hints := analyze(t, "vector-add", src)
		if o.RuntimeError == "" {
			t.Fatal("expected an OOB fault")
		}
		if hints[0] != unguarded[0] || hints[0].Confidence < 0.9 {
			t.Errorf("top hint %+v, want the unguarded kernel's %+v", hints[0], unguarded[0])
		}
	}
}

func TestNegativeIndexHint(t *testing.T) {
	_, hints := analyze(t, "vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) out[i - 1] = in1[i] + in2[i];
}`)
	if hints[0].Code != "negative-index" {
		t.Errorf("hints = %v", hintCodes(hints))
	}
}

func TestDivergentSyncthreadsHint(t *testing.T) {
	src := `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) {
    __syncthreads();
    out[i] = in1[i] + in2[i];
  }
}`
	o := runAttempt(t, "vector-add", src)
	if o.RuntimeError == "" || !strings.Contains(o.RuntimeError, "divergence") {
		t.Fatalf("expected divergence, got %q", o.RuntimeError)
	}
	h := requireHint(t, Analyze(labs.ByID("vector-add"), o, diagsOf("vector-add", src)), "divergent-syncthreads")
	if h.Confidence < 0.9 {
		t.Errorf("confidence = %v", h.Confidence)
	}
}

// TestTimeLimitHint: the step limit says nothing about how the loop is
// written; a while (1) with a data-dependent break is not unconditional.
func TestTimeLimitHint(t *testing.T) {
	for _, src := range []string{`__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  float x = 0.0f;
  while (1) { x += 1.0f; }
  out[0] = x;
}`, `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  float x = 0.0f;
  while (1) { x += in1[0]; if (x > 1e30f) break; }
  if (i < len) out[i] = x;
}`} {
		_, hints := analyze(t, "vector-add", src)
		h := requireHint(t, hints, "time-limit")
		if strings.Contains(h.Detail, "unconditional") || strings.Contains(h.Detail, "while (1)") {
			t.Errorf("detail = %q", h.Detail)
		}
	}
}

func TestDivergentSyncthreadsAfterEarlyReturn(t *testing.T) {
	o, hints := analyze(t, "vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= len) return;
  __syncthreads();
  out[i] = in1[i] + in2[i];
}`)
	if o.Fault == nil || o.Fault.Code != labs.FaultBarrierDivergence {
		t.Fatalf("fault = %+v", o.Fault)
	}
	if h := requireHint(t, hints, "divergent-syncthreads"); h.Confidence < 0.9 || !strings.Contains(h.Detail, kernelcheck.RuleBarrierExit) {
		t.Errorf("hint = %+v", h)
	}
}

func TestCallDepthHint(t *testing.T) {
	_, hints := analyze(t, "vector-add", `__device__ int f(int x) { return f(x + 1); }
__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) out[i] = (float)f(i);
}`)
	if hints[0].Code != "call-depth" {
		t.Errorf("hints = %v", hintCodes(hints))
	}
}

func TestCompileHints(t *testing.T) {
	cases := []struct {
		src  string
		code string
	}{
		{`__global__ void vecAdd(float *a, float *b, float *c, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x  c[i] = 0.0f; }`,
			"missing-semicolon"},
		{`__global__ void vecAdd(float *a, float *b, float *c, int n) { syncthreads(); }`,
			"undeclared-identifier"},
		{`__global__ void vecAdd(float *a, float *b, float *c, int n) { int i = get_global_id(0); }`,
			"wrong-dialect"},
		{`__global__ void vecAdd(float *a, float *b, float *c, int n) { int i = threadIdx; }`,
			"dim3-member"},
	}
	for _, c := range cases {
		o := runAttempt(t, "vector-add", c.src)
		if o.Compiled {
			t.Fatalf("%q compiled", c.src)
		}
		hints := Analyze(labs.ByID("vector-add"), o, diagsOf("vector-add", c.src))
		requireHint(t, hints, c.code)
		// The raw diagnostic is always included as a fallback.
		requireHint(t, hints, "compile-error")
	}
}

func TestSyncthreadsSpellingHint(t *testing.T) {
	src := `__global__ void vecAdd(float *a, float *b, float *c, int n) { syncthreads(); }`
	o := runAttempt(t, "vector-add", src)
	h := requireHint(t, Analyze(labs.ByID("vector-add"), o, diagsOf("vector-add", src)), "undeclared-identifier")
	if !strings.Contains(h.Detail, "__syncthreads()") {
		t.Errorf("detail = %q", h.Detail)
	}
}

func TestWrongAnswerBoundaryHint(t *testing.T) {
	// Off-by-one: last element never written (stays zero).
	src := `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len - 1) out[i] = in1[i] + in2[i];
  else if (i < len) out[i] = 0.0f;
}`
	o := runAttempt(t, "vector-add", src)
	if o.Correct || o.RuntimeError != "" {
		t.Fatalf("outcome = %+v", o)
	}
	hints := Analyze(labs.ByID("vector-add"), o, diagsOf("vector-add", src))
	requireHint(t, hints, "boundary-wrong")
}

func TestWrongAnswerFormulaHint(t *testing.T) {
	src := `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) out[i] = in1[i] - in2[i];
}`
	o := runAttempt(t, "vector-add", src)
	hints := Analyze(labs.ByID("vector-add"), o, diagsOf("vector-add", src))
	requireHint(t, hints, "first-element-wrong")
}

func TestMissingSyncthreadsOnSharedUse(t *testing.T) {
	// Tiled matmul without barriers: wrong results, shared memory in use.
	src := strings.ReplaceAll(labs.ByID("tiled-matmul").Reference, "__syncthreads();", "")
	o := runAttempt(t, "tiled-matmul", src)
	if o.Correct {
		t.Skip("racy tile read happened to pass; heuristic untestable this run")
	}
	hints := Analyze(labs.ByID("tiled-matmul"), o, diagsOf("tiled-matmul", src))
	requireHint(t, hints, "missing-syncthreads")
}

func TestCorrectGetsPositiveFeedback(t *testing.T) {
	l := labs.ByID("vector-add")
	o := runAttempt(t, "vector-add", l.Reference)
	if !o.Correct {
		t.Fatalf("reference failed: %+v", o)
	}
	hints := Analyze(l, o, diagsOf(l.ID, l.Reference))
	requireHint(t, hints, "correct")
}

func TestTilingSuggestedForNaiveTiledLabSolution(t *testing.T) {
	// A correct but untiled solution to the tiled lab: passes datasets,
	// gets the performance hint.
	src := `__global__ void matrixMultiplyShared(float *A, float *B, float *C,
                               int numARows, int numACols, int numBCols) {
  int row = blockIdx.y * blockDim.y + threadIdx.y;
  int col = blockIdx.x * blockDim.x + threadIdx.x;
  if (row < numARows && col < numBCols) {
    float acc = 0.0f;
    for (int k = 0; k < numACols; k++)
      acc += A[row * numACols + k] * B[k * numBCols + col];
    C[row * numBCols + col] = acc;
  }
}`
	o := runAttempt(t, "tiled-matmul", src)
	if !o.Correct {
		t.Fatalf("naive solution should be correct: %+v", o)
	}
	hints := Analyze(labs.ByID("tiled-matmul"), o, diagsOf("tiled-matmul", src))
	h := requireHint(t, hints, "consider-tiling")
	if !strings.Contains(h.Detail, "__shared__") {
		t.Errorf("detail = %q", h.Detail)
	}
}

func TestDivByZeroHint(t *testing.T) {
	src := `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int z = len - len;
  out[0] = (float)(7 / z);
}`
	o := runAttempt(t, "vector-add", src)
	requireHint(t, Analyze(labs.ByID("vector-add"), o, diagsOf("vector-add", src)), "div-by-zero")
}

func TestWrongKernelNameHint(t *testing.T) {
	src := `__global__ void myVectorAdd(float *a, float *b, float *c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) c[i] = a[i] + b[i];
}`
	o := runAttempt(t, "vector-add", src)
	h := requireHint(t, Analyze(labs.ByID("vector-add"), o, diagsOf("vector-add", src)), "wrong-kernel-name")
	if !strings.Contains(h.Detail, "skeleton") {
		t.Errorf("detail = %q", h.Detail)
	}
}

func TestConstWriteHint(t *testing.T) {
	src := `__constant__ float M[5];
__global__ void conv1d(float *in, float *out, int n) {
  M[0] = 1.0f;
  out[0] = in[0];
}`
	o := runAttempt(t, "convolution-2d", src) // lab harness rejects first on kernel name
	_ = o
	// Drive it via a lab whose harness launches our kernel name: use the
	// conv lab signature instead.
	src2 := `#define MASK_WIDTH 5
__constant__ float M[MASK_WIDTH][MASK_WIDTH];
__global__ void convolution2D(float *in, float *out, int height, int width) {
  M[0][0] = 1.0f;
  out[0] = in[0];
}`
	o2 := runAttempt(t, "convolution-2d", src2)
	if o2.RuntimeError == "" {
		t.Fatalf("write to constant memory not faulted: %+v", o2)
	}
	requireHint(t, Analyze(labs.ByID("convolution-2d"), o2, diagsOf("convolution-2d", src2)), "const-write")
}

func TestUncoalescedHint(t *testing.T) {
	// Correct tiled-matmul-lab submission whose shared-memory staging is
	// column-strided: correct results, shared ops present, and global
	// loads spread across segments.
	src := `__global__ void matrixMultiplyShared(float *A, float *B, float *C,
                               int numARows, int numACols, int numBCols) {
  __shared__ float stage[16];
  int row = blockIdx.y * blockDim.y + threadIdx.y;
  int col = blockIdx.x * blockDim.x + threadIdx.x;
  stage[threadIdx.y] = A[0];
  if (row < numARows && col < numBCols) {
    float acc = 0.0f;
    for (int k = 0; k < numACols; k++)
      acc += A[row * numACols + k] * B[k * numBCols + col];
    C[row * numBCols + col] = acc + 0.0f * stage[threadIdx.y];
  }
}`
	o := runAttempt(t, "tiled-matmul", src)
	if !o.Correct {
		t.Skipf("variant not correct this run: %+v", o)
	}
	hints := Analyze(labs.ByID("tiled-matmul"), o, diagsOf("tiled-matmul", src))
	// Either the uncoalesced or the broader performance analysis fires;
	// the submission must not be left with zero feedback.
	if len(hints) == 0 {
		t.Fatal("no hints for a slow-but-correct submission")
	}
}

func TestHintsSortedByConfidence(t *testing.T) {
	src := `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = in1[i] + in2[i];
}`
	o := runAttempt(t, "vector-add", src)
	hints := Analyze(labs.ByID("vector-add"), o, diagsOf("vector-add", src))
	for i := 1; i < len(hints); i++ {
		if hints[i].Confidence > hints[i-1].Confidence {
			t.Fatalf("hints not sorted: %v", hintCodes(hints))
		}
	}
}

func TestKernelStatsPopulated(t *testing.T) {
	l := labs.ByID("tiled-matmul")
	o := runAttempt(t, "tiled-matmul", l.Reference)
	if len(o.Kernels) == 0 {
		t.Fatal("no kernel stats recorded")
	}
	k := o.Kernels[0]
	if k.Name == "" || k.Threads == 0 || k.SharedOps == 0 || k.Barriers == 0 {
		t.Errorf("stats = %+v", k)
	}
}

// gallery is one attempt per fault code FaultOf gives, plus a wrong
// answer, a shared-memory race and a correct but untiled run.
var gallery = []struct{ lab, src string }{
	{"vector-add", `__global__ void vecAdd(float *a, float *b, float *c, int n) { syncthreads(); }`},
	{"vector-add", `__global__ void vecAdd(float *a, float *b, float *c, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x  c[i] = 0.0f; }`},
	{"vector-add", `__global__ void vecAdd(float *a, float *b, float *c, int n) { int i = (1 + 2; }`},
	{"vector-add", `__global__ void vecAdd(float *a, float *b, float *c, int n) { int i = get_global_id(0); }`},
	{"opencl-vector-add", `__kernel void vadd(__global const float *a, __global const float *b, __global float *c, int n) { __syncthreads(); }`},
	{"vector-add", `__global__ void vecAdd(float *a, float *b, float *c, int n) { int i = threadIdx; }`},
	{"vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = in1[i] + in2[i];
}`},
	{"vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) out[i - 1] = in1[i] + in2[i];
}`},
	{"vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  __shared__ float t[4];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  t[threadIdx.x] = 1.0f;
  if (i < len) out[i] = in1[i] + in2[i];
}`},
	{"vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  float a[4];
  a[i] = 1.0f;
  if (i < len) out[i] = a[0];
}`},
	{"convolution-2d", `#define MASK_WIDTH 5
__constant__ float M[MASK_WIDTH][MASK_WIDTH];
__global__ void convolution2D(float *in, float *out, int height, int width) {
  M[0][0] = 1.0f;
  out[0] = in[0];
}`},
	{"vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) {
    __syncthreads();
    out[i] = in1[i] + in2[i];
  }
}`},
	{"vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  float x = 0.0f;
  while (1) { x += 1.0f; }
  out[0] = x;
}`},
	{"vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int z = len - len;
  out[0] = (float)(7 / z);
}`},
	{"vector-add", `__device__ int f(int x) { return f(x + 1); }
__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) out[i] = (float)f(i);
}`},
	{"vector-add", `__global__ void myVectorAdd(float *a, float *b, float *c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) c[i] = a[i] + b[i];
}`},
	{"vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len - 1) out[i] = in1[i] + in2[i];
  else if (i < len) out[i] = 0.0f;
}`},
	{"tiled-matmul", strings.ReplaceAll(labs.ByID("tiled-matmul").Reference, "__syncthreads();", "")},
	{"tiled-matmul", `__global__ void matrixMultiplyShared(float *A, float *B, float *C,
                               int numARows, int numACols, int numBCols) {
  int row = blockIdx.y * blockDim.y + threadIdx.y;
  int col = blockIdx.x * blockDim.x + threadIdx.x;
  if (row < numARows && col < numBCols) {
    float acc = 0.0f;
    for (int k = 0; k < numACols; k++)
      acc += A[row * numACols + k] * B[k * numBCols + col];
    C[row * numBCols + col] = acc;
  }
}`},
}

type ranked struct {
	code string
	conf float64
}

func ranking(hints []Hint) []ranked {
	out := make([]ranked, len(hints))
	for i, h := range hints {
		out[i] = ranked{h.Code, h.Confidence}
	}
	return out
}

// TestHintsIgnoreErrorText: the hints are a function of the attempt's
// facts. Overwriting every text field of the outcome changes no hint's
// code or confidence, only the details that quote the text.
func TestHintsIgnoreErrorText(t *testing.T) {
	for i, g := range gallery {
		o, hints := analyze(t, g.lab, g.src)
		x := *o
		for _, s := range []*string{&x.RuntimeError, &x.CompileError, &x.CheckMessage, &x.Trace} {
			if *s != "" {
				*s = "x"
			}
		}
		got := ranking(Analyze(labs.ByID(g.lab), &x, diagsOf(g.lab, g.src)))
		if want := ranking(hints); !reflect.DeepEqual(got, want) {
			t.Errorf("gallery[%d]: with the text overwritten %v, want %v", i, got, want)
		}
	}
}

// TestOldRowsGetGenericHint: an outcome stored before faults were
// recorded has its text but no facts, and gets the generic hint for its
// state alone.
func TestOldRowsGetGenericHint(t *testing.T) {
	for i, g := range gallery {
		o := runAttempt(t, g.lab, g.src)
		want := "wrong-answer"
		switch {
		case !o.Compiled:
			want = "compile-error"
		case o.RuntimeError != "":
			want = "runtime-error"
		case o.Correct, o.Kernels[0].SharedOps > 0:
			continue // the counters alone still say something
		}
		o.Fault, o.FirstBad, o.Total = nil, 0, 0
		if hints := Analyze(labs.ByID(g.lab), o, nil); len(hints) != 1 || hints[0].Code != want {
			t.Errorf("gallery[%d]: old row hints %v, want only %s", i, hintCodes(hints), want)
		}
	}
}

// FuzzAnalyze: any stored outcome and diagnostics, on any lab, give at
// least one hint, most confident first, and never a panic. The seeds are
// a stored row from before faults were recorded, an empty one, and one
// row per fault code.
func FuzzAnalyze(f *testing.F) {
	f.Fuzz(func(t *testing.T, outcome, diags []byte) {
		var o labs.Outcome
		if json.Unmarshal(outcome, &o) != nil {
			return
		}
		var ds []kernelcheck.Diagnostic
		_ = json.Unmarshal(diags, &ds)
		for _, l := range labs.All() {
			hints := Analyze(l, &o, ds)
			if len(hints) == 0 {
				t.Fatalf("%s: no hints for %s", l.ID, outcome)
			}
			if !sort.SliceIsSorted(hints, func(i, j int) bool { return hints[i].Confidence > hints[j].Confidence }) {
				t.Fatalf("%s: hints not sorted: %v", l.ID, ranking(hints))
			}
		}
	})
}
