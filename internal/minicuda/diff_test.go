package minicuda

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"webgpu/internal/gpusim"
)

// Differential testing of the two execution engines: every kernel is
// compiled once and launched twice — through the tree-walking interpreter
// and the warp-vectorized engine — on separate devices. Outputs,
// LaunchStats (minus wall time), and error strings must match exactly; the
// tree walker is the oracle, so the generators only need to produce valid,
// terminating kernels, not predict their results.

// diffCase is one kernel to run under both engines.
type diffCase struct {
	src      string
	kernel   string
	grid     gpusim.Dim3
	block    gpusim.Dim3
	nInt     int   // length of the int *iout output buffer
	nFloat   int   // length of the float *fout output buffer
	extra    []Arg // scalar arguments after iout/fout
	maxSteps int64
	// constData, when set, is copied into the __constant__ variable named
	// constName before the launch.
	constName string
	constData []byte
}

// engineRun is the observable behaviour of one launch.
type engineRun struct {
	ints   []int32
	floats []float32
	stats  gpusim.LaunchStats
	errStr string
}

func runOnEngine(t *testing.T, prog *Program, c diffCase, eng Engine) engineRun {
	t.Helper()
	return runOnDevice(t, prog, c, gpusim.NewDefaultDevice(), LaunchOpts{Engine: eng})
}

// runOnDevice launches c on dev; opts supplies the engine and scheduling
// knobs, the case supplies geometry and the step budget.
func runOnDevice(t *testing.T, prog *Program, c diffCase, dev *gpusim.Device, opts LaunchOpts) engineRun {
	t.Helper()
	iout, err := dev.Malloc(c.nInt * 4)
	if err != nil {
		t.Fatal(err)
	}
	fout, err := dev.Malloc(c.nFloat * 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.constName != "" {
		if err := prog.LoadConstant(dev, c.constName, c.constData); err != nil {
			t.Fatalf("LoadConstant: %v", err)
		}
	}
	args := append([]Arg{IntPtr(iout), FloatPtr(fout)}, c.extra...)
	opts.Grid, opts.Block, opts.MaxSteps = c.grid, c.block, c.maxSteps
	stats, lerr := prog.Launch(dev, c.kernel, opts, args...)
	r := engineRun{}
	if lerr != nil {
		r.errStr = lerr.Error()
	}
	if stats != nil {
		r.stats = *stats
		r.stats.WallTime = 0
	}
	r.ints, _ = dev.ReadInt32(iout, c.nInt)
	r.floats, _ = dev.ReadFloat32(fout, c.nFloat)
	return r
}

// withDefaults fills the geometry and buffer sizes a case left zero.
func (c diffCase) withDefaults() diffCase {
	if c.grid == (gpusim.Dim3{}) {
		c.grid = gpusim.D1(1)
	}
	if c.block == (gpusim.Dim3{}) {
		c.block = gpusim.D1(1)
	}
	if c.nInt == 0 {
		c.nInt = 4
	}
	if c.nFloat == 0 {
		c.nFloat = 2
	}
	return c
}

// runDiff executes the case under both engines and fails on any divergence.
func runDiff(t *testing.T, c diffCase) {
	t.Helper()
	c = c.withDefaults()
	prog, err := Compile(c.src, DialectCUDA)
	if err != nil {
		t.Fatalf("compile failed:\n%s\nerror: %v", c.src, err)
	}
	tree := runOnEngine(t, prog, c, EngineTree)
	requireSameRun(t, "warp", runOnEngine(t, prog, c, EngineWarp), tree, c, true)
}

// requireSameRun fails unless got matches the tree walker's run of c.
// Stats are byte-identical except for one documented boundary, which
// lockstep marks got as subject to: when a multi-thread launch traps
// mid-kernel, the warp engine's lockstep lanes have co-progressed to the
// trap point, while the serial per-thread tree walker never starts the
// threads after the trapping one. Traps are exact at 1×1 (the whole random
// corpus) and on trap-free multi-lane kernels.
func requireSameRun(t *testing.T, name string, got, tree engineRun, c diffCase, lockstep bool) {
	t.Helper()
	if got.errStr != tree.errStr {
		t.Fatalf("error divergence:\n%s: %q\ntree: %q\nkernel:\n%s",
			name, got.errStr, tree.errStr, c.src)
	}
	if !reflect.DeepEqual(got.ints, tree.ints) {
		t.Fatalf("int output divergence:\n%s: %v\ntree: %v\nkernel:\n%s",
			name, got.ints, tree.ints, c.src)
	}
	if !reflect.DeepEqual(got.floats, tree.floats) {
		t.Fatalf("float output divergence:\n%s: %v\ntree: %v\nkernel:\n%s",
			name, got.floats, tree.floats, c.src)
	}
	if lockstep && tree.errStr != "" && c.grid.Count()*c.block.Count() > 1 {
		return
	}
	if !reflect.DeepEqual(got.stats, tree.stats) {
		t.Fatalf("stats divergence:\n%s: %+v\ntree: %+v\nkernel:\n%s",
			name, got.stats, tree.stats, c.src)
	}
}

// scalarArgs is the fixed argument tail the generated kernels declare.
func scalarArgs(e env) []Arg {
	return []Arg{Int(int(e.a)), Int(int(e.b)), Float(e.x), Float(e.y)}
}

func randEnv(rng *rand.Rand) env {
	return env{
		a: int32(rng.Intn(200) - 100),
		b: int32(rng.Intn(200) - 100),
		x: float32(rng.Intn(160)-80) / 8,
		y: float32(rng.Intn(160)-80) / 8,
	}
}

// TestDiffRandomExpressions reuses the expression generators from
// quick_test.go: each trial is one kernel evaluating a random int and a
// random float expression under both engines.
func TestDiffRandomExpressions(t *testing.T) {
	rng := rand.New(rand.NewSource(771177))
	g := &exprGen{rng: rng}
	const trials = 700
	for trial := 0; trial < trials; trial++ {
		ie := g.intExpr(3 + rng.Intn(2))
		fe := g.floatExpr(3 + rng.Intn(2))
		e := randEnv(rng)
		src := fmt.Sprintf(`
__global__ void probe(int *iout, float *fout, int a, int b, float x, float y) {
  iout[0] = %s;
  fout[0] = %s;
}`, ie.src, fe.src)
		runDiff(t, diffCase{src: src, kernel: "probe", extra: scalarArgs(e)})
	}
}

// stmtGen renders random statement lists: loops, branches, compound
// assignments, local arrays, and unsigned arithmetic over a fixed set of
// locals. All loops have constant bounds so every kernel terminates.
type stmtGen struct {
	rng   *rand.Rand
	eg    *exprGen
	depth int
	loops int // running loop-variable counter for unique names
}

func (s *stmtGen) iexpr() string { return s.eg.intExpr(1 + s.rng.Intn(2)).src }
func (s *stmtGen) fexpr() string { return s.eg.floatExpr(1 + s.rng.Intn(2)).src }

func (s *stmtGen) block(depth int, inLoop bool) string {
	n := 1 + s.rng.Intn(3)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(s.stmt(depth, inLoop))
	}
	return b.String()
}

func (s *stmtGen) stmt(depth int, inLoop bool) string {
	r := s.rng
	if depth <= 0 {
		switch r.Intn(8) {
		case 0:
			return fmt.Sprintf("v%d = %s;\n", r.Intn(4), s.iexpr())
		case 1:
			op := []string{"+=", "-=", "*=", "&=", "|=", "^="}[r.Intn(6)]
			return fmt.Sprintf("v%d %s %s;\n", r.Intn(4), op, s.iexpr())
		case 2:
			return fmt.Sprintf("v%d /= ((%s & 7) + 1);\n", r.Intn(4), s.iexpr())
		case 3:
			return fmt.Sprintf("f%d = %s;\n", r.Intn(2), s.fexpr())
		case 4:
			op := []string{"+=", "-=", "*="}[r.Intn(3)]
			return fmt.Sprintf("f%d %s %s;\n", r.Intn(2), op, s.fexpr())
		case 5:
			return fmt.Sprintf("arr[(%s) & 7] = %s;\n", s.iexpr(), s.iexpr())
		case 6:
			return fmt.Sprintf("v%d = arr[(%s) & 7];\n", r.Intn(4), s.iexpr())
		default:
			if r.Intn(2) == 0 {
				return fmt.Sprintf("v%d++;\n", r.Intn(4))
			}
			return fmt.Sprintf("--v%d;\n", r.Intn(4))
		}
	}
	switch r.Intn(7) {
	case 0:
		if r.Intn(2) == 0 {
			return fmt.Sprintf("if (%s) {\n%s}\n", s.iexpr(), s.block(depth-1, inLoop))
		}
		return fmt.Sprintf("if (%s) {\n%s} else {\n%s}\n",
			s.iexpr(), s.block(depth-1, inLoop), s.block(depth-1, inLoop))
	case 1:
		s.loops++
		i := fmt.Sprintf("i%d", s.loops)
		body := s.block(depth-1, true)
		if r.Intn(3) == 0 {
			body += fmt.Sprintf("if (%s == %d) continue;\n", i, r.Intn(4))
		}
		if r.Intn(3) == 0 {
			body += fmt.Sprintf("if (v%d > %d) break;\n", r.Intn(4), 50+r.Intn(100))
		}
		return fmt.Sprintf("for (int %s = 0; %s < %d; %s++) {\n%s}\n",
			i, i, 2+r.Intn(5), i, body)
	case 2:
		s.loops++
		w := fmt.Sprintf("w%d", s.loops)
		return fmt.Sprintf("{ int %s = 0; while (%s < %d) { %s++;\n%s} }\n",
			w, w, 1+r.Intn(4), w, s.block(depth-1, true))
	case 3:
		s.loops++
		w := fmt.Sprintf("d%d", s.loops)
		return fmt.Sprintf("{ int %s = 0; do { %s++;\n%s} while (%s < %d); }\n",
			w, w, s.block(depth-1, true), w, 1+r.Intn(3))
	case 4:
		return fmt.Sprintf("v%d = (%s) ? (%s) : (%s);\n",
			r.Intn(4), s.iexpr(), s.iexpr(), s.iexpr())
	case 5:
		return fmt.Sprintf("{ unsigned int u = (unsigned int)(%s); v%d = (int)(u >> %d) + (int)(u %% %du); }\n",
			s.iexpr(), r.Intn(4), 1+r.Intn(8), 3+r.Intn(13))
	default:
		return s.stmt(0, inLoop)
	}
}

// TestDiffRandomStatements runs randomly generated statement-heavy kernels
// under both engines. The final writes fold every local into the outputs so
// any divergence in intermediate state is visible.
func TestDiffRandomStatements(t *testing.T) {
	rng := rand.New(rand.NewSource(55004400))
	sg := &stmtGen{rng: rng, eg: &exprGen{rng: rng}}
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		e := randEnv(rng)
		body := sg.block(2+rng.Intn(2), false)
		src := fmt.Sprintf(`
__global__ void probe(int *iout, float *fout, int a, int b, float x, float y) {
  int v0 = a; int v1 = b; int v2 = a - b; int v3 = 1;
  float f0 = x; float f1 = y;
  int arr[8];
  for (int z = 0; z < 8; z++) { arr[z] = z * a + b; }
%s
  iout[0] = v0; iout[1] = v1; iout[2] = v2 * 3 + v3;
  iout[3] = 0;
  for (int z = 0; z < 8; z++) { iout[3] += arr[z]; }
  fout[0] = f0; fout[1] = f1;
}`, body)
		runDiff(t, diffCase{src: src, kernel: "probe", extra: scalarArgs(e)})
	}
}

// diffEdgeCases returns the curated trap/barrier/atomic/device-function/
// pointer/constant-memory corpus. Shared between the engine differential
// tests and the codec round-trip tests in codec_test.go.
func diffEdgeCases() []diffCase {
	cases := []diffCase{
		// Runtime traps: identical error strings and partial stats required.
		{kernel: "k", src: `__global__ void k(int *iout, float *fout, int n) {
  iout[0] = 1; iout[1] = 5 / n; }`, extra: []Arg{Int(0)}},
		{kernel: "k", src: `__global__ void k(int *iout, float *fout, int n) {
  iout[0] = 7 % n; }`, extra: []Arg{Int(0)}},
		{kernel: "k", src: `__global__ void k(int *iout, float *fout) {
  iout[123456] = 1; }`},
		{kernel: "k", src: `__global__ void k(int *iout, float *fout) {
  iout[-3] = 1; }`},
		{kernel: "k", src: `__global__ void k(int *iout, float *fout) {
  int n = 0; while (1) { n++; } iout[0] = n; }`, maxSteps: 1000},
		{kernel: "k", src: `__device__ int rec(int n) { return rec(n + 1); }
__global__ void k(int *iout, float *fout) { iout[0] = rec(0); }`},
		// Shared memory, barriers, and a block-wide reduction.
		{kernel: "k", block: gpusim.D1(32), nInt: 1, src: `__global__ void k(int *iout, float *fout) {
  __shared__ int s[32];
  s[threadIdx.x] = threadIdx.x * 3;
  __syncthreads();
  if (threadIdx.x == 0) {
    int sum = 0;
    for (int i = 0; i < 32; i++) { sum += s[i]; }
    iout[0] = sum;
  }
}`},
		// Barrier divergence is an error in both engines.
		{kernel: "k", block: gpusim.D1(4), src: `__global__ void k(int *iout, float *fout) {
  if (threadIdx.x == 0) { __syncthreads(); }
  iout[threadIdx.x] = threadIdx.x;
}`},
		// Integer atomics from many threads (deterministic sum).
		{kernel: "k", grid: gpusim.D1(2), block: gpusim.D1(64), nInt: 2, src: `__global__ void k(int *iout, float *fout) {
  atomicAdd(&iout[0], 2);
  atomicMax(&iout[1], threadIdx.x);
}`},
		// Single-thread atomic zoo, including float atomicAdd.
		{kernel: "k", nInt: 6, src: `__global__ void k(int *iout, float *fout) {
  iout[0] = atomicAdd(&iout[0], 5);
  iout[1] = atomicSub(&iout[1], 3);
  iout[2] = atomicExch(&iout[2], 9);
  iout[3] = atomicMin(&iout[3], -4);
  iout[4] = atomicCAS(&iout[4], 0, 7);
  atomicAdd(&fout[0], 1.5f);
}`},
		// Shared-memory atomics.
		{kernel: "k", block: gpusim.D1(16), nInt: 1, src: `__global__ void k(int *iout, float *fout) {
  __shared__ int s;
  if (threadIdx.x == 0) { s = 0; }
  __syncthreads();
  atomicAdd(&s, threadIdx.x);
  __syncthreads();
  if (threadIdx.x == 0) { iout[0] = s; }
}`},
		// Device functions: arguments convert, returns convert, recursion up
		// to a modest depth.
		{kernel: "k", src: `__device__ float scale(float v, int k) { return v * k; }
__device__ int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
__global__ void k(int *iout, float *fout) {
  fout[0] = scale(1.25f, 3);
  iout[0] = fib(10);
  iout[1] = (int)scale(2.0f, 4);
}`},
		// Pointer arithmetic and pointer difference.
		{kernel: "k", nInt: 6, src: `__global__ void k(int *iout, float *fout) {
  int *p = iout + 2;
  p[0] = 77;
  *(p + 1) = 88;
  iout[0] = (int)(p - iout);
  iout[1] = *(iout + 2);
}`},
		// Narrow types: unsigned char buffers and truncation.
		{kernel: "k", src: `__global__ void k(int *iout, float *fout, int n) {
  unsigned char c = (unsigned char)(n);
  c += 200;
  iout[0] = (int)c;
  unsigned int u = (unsigned int)(-n);
  iout[1] = (int)(u / 7u);
  iout[2] = (int)(u >> 5);
}`, extra: []Arg{Int(300)}},
		// Special-function builtins and math builtins.
		{kernel: "k", nFloat: 8, src: `__global__ void k(int *iout, float *fout, float x) {
  fout[0] = sqrtf(x + 9.0f);
  fout[1] = expf(x * 0.25f);
  fout[2] = logf(x + 10.0f);
  fout[3] = powf(x + 2.0f, 2.0f);
  fout[4] = fminf(x, 1.5f) + fmaxf(x, -1.5f);
  fout[5] = fabsf(-x) + floorf(x) + ceilf(x);
  fout[6] = sinf(x) + cosf(x);
  fout[7] = rsqrtf(x + 4.0f);
  iout[0] = min(3, (int)x) + max(-3, (int)x) + abs((int)x - 2);
}`, extra: []Arg{Float(3.75)}},
	}

	more := []diffCase{
		// Constant memory.
		{kernel: "k", constName: "tab", constData: []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0},
			src: `__constant__ int tab[4];
__global__ void k(int *iout, float *fout) {
  int s = 0;
  for (int i = 0; i < 4; i++) { s += tab[i]; }
  iout[0] = s;
}`},
		// Memory-side increment/decrement, prefix and postfix.
		{kernel: "k", src: `__global__ void k(int *iout, float *fout) {
  iout[0] = 10;
  iout[1] = iout[0]++;
  iout[2] = ++iout[0];
  iout[3] = --iout[0];
}`},
		// Grid/block builtins across a 2-D launch.
		{kernel: "k", grid: gpusim.D2(2, 2), block: gpusim.D2(4, 2), nInt: 32,
			src: `__global__ void k(int *iout, float *fout) {
  int id = (blockIdx.y * gridDim.x + blockIdx.x) * blockDim.x * blockDim.y
         + threadIdx.y * blockDim.x + threadIdx.x;
  iout[id] = id * 2 + blockDim.y + gridDim.y;
}`},
		// Short-circuit evaluation guards a trapping divide.
		{kernel: "k", src: `__global__ void k(int *iout, float *fout, int n) {
  iout[0] = (n != 0 && 10 / n > 1) ? 1 : 0;
  iout[1] = (n == 0 || 10 / n > 1) ? 1 : 0;
}`, extra: []Arg{Int(0)}},
		// Comma operator and nested ternaries.
		{kernel: "k", src: `__global__ void k(int *iout, float *fout, int a) {
  int t = (iout[0] = a + 1, a * 2);
  iout[1] = t > 0 ? t < 10 ? 1 : 2 : 3;
}`, extra: []Arg{Int(6)}},
		// Casts in every direction.
		{kernel: "k", src: `__global__ void k(int *iout, float *fout, float x) {
  iout[0] = (int)x;
  iout[1] = (int)(unsigned char)(x * 100.0f);
  fout[0] = (float)(int)(x * 3.0f);
  fout[1] = (float)(unsigned int)(7);
}`, extra: []Arg{Float(-2.75)}},
		// Shared-memory out-of-bounds trap.
		{kernel: "k", block: gpusim.D1(2), src: `__global__ void k(int *iout, float *fout) {
  __shared__ int s[4];
  s[threadIdx.x + 100] = 1;
  iout[0] = s[0];
}`},
		// Step budget exhausted inside a device function call chain.
		{kernel: "k", maxSteps: 500, src: `__device__ int spin(int n) {
  int s = 0;
  for (int i = 0; i < 100000; i++) { s += i & n; }
  return s;
}
__global__ void k(int *iout, float *fout) { iout[0] = spin(3); }`},
	}
	return append(cases, more...)
}

// TestDiffEdgeCases pins down traps, barriers, atomics, device functions,
// pointer arithmetic, constant memory, and narrow types — the behaviours
// most likely to diverge between the engines.
func TestDiffEdgeCases(t *testing.T) {
	for i, c := range diffEdgeCases() {
		i, c := i, c
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) { runDiff(t, c) })
	}
}

// namedDiffCase pairs a diffCase with a subtest name.
type namedDiffCase struct {
	name string
	c    diffCase
}

// warpDivergenceCases returns divergence-heavy multi-lane kernels that
// stress the warp engine's strand splitting, reconvergence-by-merge, and
// the barrier arrive/wait split. All are race-free and trap-free so the
// two engines must agree bit-for-bit on outputs and stats. Shared with
// codec_test.go.
func warpDivergenceCases() []namedDiffCase {
	cases := []namedDiffCase{
		{"nested-divergent-branches", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 32,
			src: `__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  int v = 0;
  if (t & 1) {
    if (t & 2) { v = t * 3; } else { v = t - 7; }
    if (t > 16) { v += 100; }
  } else {
    if (t & 4) { v = t * t; }
    else { if (t & 8) { v = -t; } else { v = t + 40; } }
  }
  iout[t] = v;
}`}},
		{"divergent-early-return", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 32,
			src: `__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  iout[t] = -1;
  if (t % 3 == 0) { return; }
  iout[t] = t;
  if (t > 20) { return; }
  iout[t] = t * 2;
}`}},
		{"divergent-trip-counts", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 32,
			src: `__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  int s = 0;
  for (int i = 0; i < t % 7 + 1; i++) { s += i * i + t; }
  while (s > 50) { s -= 13; }
  iout[t] = s;
}`}},
		{"barrier-inside-uniform-branch", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 33,
			src: `__global__ void k(int *iout, float *fout) {
  __shared__ int tile[32];
  int t = threadIdx.x;
  tile[t] = t + 1;
  if (blockDim.x == 32) {
    __syncthreads();
    if (t == 0) {
      int sum = 0;
      for (int i = 0; i < 32; i++) { sum += tile[i]; }
      iout[32] = sum;
    }
  }
  iout[t] = tile[31 - t];
}`}},
		{"divergent-lanes-rejoin-at-barrier", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 32,
			src: `__global__ void k(int *iout, float *fout) {
  __shared__ int tile[32];
  int t = threadIdx.x;
  if (t < 16) { tile[t] = t * 2; } else { tile[t] = 1000 - t; }
  __syncthreads();
  iout[t] = tile[(t + 5) % 32];
}`}},
		{"multi-warp-divergence", diffCase{kernel: "k", grid: gpusim.D1(2), block: gpusim.D1(64), nInt: 128,
			src: `__global__ void k(int *iout, float *fout) {
  int id = blockIdx.x * blockDim.x + threadIdx.x;
  int v;
  if (threadIdx.x < 32) {
    v = id * 3;
    if (threadIdx.x & 1) { v ^= 21; }
  } else {
    v = -id;
  }
  iout[id] = v;
}`}},
		{"divergent-device-calls", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 32,
			src: `__device__ int collatz(int n) {
  int c = 0;
  while (n != 1 && c < 40) { n = (n & 1) ? 3 * n + 1 : n / 2; c++; }
  return c;
}
__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  if (t & 1) { iout[t] = collatz(t + 2); } else { iout[t] = collatz(27); }
}`}},
		{"divergent-float-accumulation", diffCase{kernel: "k", block: gpusim.D1(32), nFloat: 32,
			src: `__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  float acc = 0.0f;
  for (int i = 0; i <= t; i++) {
    if (i & 1) { acc += sqrtf((float)i); } else { acc -= 0.5f * i; }
  }
  fout[t] = acc;
}`}},
		{"partial-warp-tail", diffCase{kernel: "k", block: gpusim.D1(40), nInt: 40,
			src: `__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  int v = t;
  if (t >= 32) { v = v * v; } else { if (t % 5 == 0) { v += 77; } }
  iout[t] = v;
}`}},
		{"switchback-loop-divergence", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 32,
			src: `__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  int v = 0;
  for (int i = 0; i < 8; i++) {
    if ((i + t) & 1) { v += i * t; continue; }
    if (v > 60) { break; }
    v += 2;
  }
  iout[t] = v;
}`}},
		{"divergent-atomics", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 4,
			src: `__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  if (t & 1) { atomicAdd(&iout[0], t); } else { atomicAdd(&iout[1], 1); }
  atomicMax(&iout[2], (t * 7) % 31);
}`}},
		// Lanes that return from the callee early must not issue the
		// caller's next access before the lanes still inside it return.
		{"early-return-from-callee", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 32, nFloat: 64,
			src: `__device__ float f(float *a, int t) {
  if (t < 10) { return 1.0f; }
  float s = 0.0f;
  for (int i = 0; i < t % 4 + 1; i++) { s += a[t + i]; }
  return s;
}
__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  float v = f(fout, t);
  iout[t] = (int)v + t;
  fout[t] = v;
}`}},
		// Lanes at different recursion depths: each level's store issues
		// for the lanes that reach it along the same call path, together.
		{"divergent-recursion", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 128,
			src: `__device__ int g(int *a, int t, int n) {
  if (n <= 0) { return 0; }
  int r = g(a, t, n - 1);
  a[t * 4 + n] = r + n;
  return r + 1;
}
__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  g(iout, t, t % 3 + (t < 16 ? 0 : 1));
}`}},
		// Two halves of a warp released by one barrier through two
		// __syncthreads sites issue what follows together.
		{"halves-released-by-one-barrier", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 32,
			src: `__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  if (t < 16) { __syncthreads(); } else { __syncthreads(); }
  iout[t] = t * 2;
}`}},
	}
	for _, v := range barrierVerdictCases {
		cases = append(cases, v.namedDiffCase)
	}
	return cases
}

// barrierVerdictCases: one block of two warps around a barrier not every
// thread takes. The two cross-warp kernels are the two orders in which a
// skipped barrier can play out — the takers arrive first and the others
// retire while they are parked, or the others have retired before the
// first taker arrives — and used to be graded by whichever warp's
// goroutine the Go scheduler ran first.
var barrierVerdictCases = []struct {
	namedDiffCase
	diverges bool
	barriers int64
}{
	{namedDiffCase{"barrier-skipped-by-upper-warp", diffCase{kernel: "k", block: gpusim.D1(64), nInt: 64,
		src: `__global__ void k(int *iout, float *fout) {
  if (threadIdx.x < 32) { __syncthreads(); }
  iout[threadIdx.x] = threadIdx.x + 1;
}`}}, true, 32},
	{namedDiffCase{"barrier-skipped-by-lower-warp", diffCase{kernel: "k", block: gpusim.D1(64), nInt: 64,
		src: `__global__ void k(int *iout, float *fout) {
  if (threadIdx.x >= 32) { __syncthreads(); }
  iout[threadIdx.x] = threadIdx.x + 1;
}`}}, true, 32},
	{namedDiffCase{"barrier-taken-by-one-lane", diffCase{kernel: "k", block: gpusim.D1(64), nInt: 64,
		src: `__global__ void k(int *iout, float *fout) {
  if (threadIdx.x == 0) { __syncthreads(); }
  iout[threadIdx.x] = threadIdx.x + 1;
}`}}, true, 1},
	{namedDiffCase{"barrier-taken-by-all", diffCase{kernel: "k", block: gpusim.D1(64), nInt: 64,
		src: `__global__ void k(int *iout, float *fout) {
  __syncthreads();
  iout[threadIdx.x] = threadIdx.x + 1;
}`}}, false, 64},
}

// TestBarrierVerdictIsThePrograms: a kernel has one barrier verdict — the
// error, LaunchStats.Divergence, the barrier count and what reached memory
// — on every launch and on both engines.
func TestBarrierVerdictIsThePrograms(t *testing.T) {
	for _, v := range barrierVerdictCases {
		c := v.c.withDefaults()
		t.Run(v.name, func(t *testing.T) {
			prog, err := Compile(c.src, DialectCUDA)
			if err != nil {
				t.Fatal(err)
			}
			wantErr := ""
			if v.diverges {
				wantErr = gpusim.ErrBarrierDivergence.Error()
			}
			var want engineRun
			for _, eng := range []Engine{EngineTree, EngineWarp} {
				for i := 0; i < 100; i++ {
					got := runOnEngine(t, prog, c, eng)
					if got.errStr != wantErr || got.stats.Divergence != v.diverges || got.stats.Barriers != v.barriers {
						t.Fatalf("engine %d, launch %d: err %q, Divergence %v, Barriers %d; want %q, %v, %d",
							eng, i, got.errStr, got.stats.Divergence, got.stats.Barriers, wantErr, v.diverges, v.barriers)
					}
					if eng == EngineTree && i == 0 {
						want = got
					} else if !reflect.DeepEqual(got.ints, want.ints) {
						t.Fatalf("engine %d, launch %d: output %v, want %v", eng, i, got.ints, want.ints)
					}
				}
			}
		})
	}
}

// TestSharedRaceReplaysIdentically: a barrier kernel with a real race on
// shared memory across its two warps (a read of another warp's element
// with no barrier between the write and it) is still a function of its
// input on each engine — a block's warps and threads take turns, they do
// not run concurrently — and, for the same reason, not a Go-level data race
// that go test -race would report.
func TestSharedRaceReplaysIdentically(t *testing.T) {
	c := diffCase{kernel: "k", grid: gpusim.D1(3), block: gpusim.D1(64), nInt: 192,
		src: `__global__ void k(int *iout, float *fout) {
  __shared__ int s[64];
  int t = threadIdx.x;
  s[t] = blockIdx.x * 100 + t + 1;
  int seen = s[(t + 33) % 64];
  __syncthreads();
  iout[blockIdx.x * 64 + t] = seen + s[63 - t];
}`}.withDefaults()
	prog, err := Compile(c.src, DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineTree, EngineWarp} {
		want := runOnEngine(t, prog, c, eng)
		if want.errStr != "" {
			t.Fatalf("engine %d: %s", eng, want.errStr)
		}
		for i := 1; i < 50; i++ {
			if got := runOnEngine(t, prog, c, eng); !reflect.DeepEqual(got, want) {
				t.Fatalf("engine %d, replay %d:\n got %+v\nwant %+v", eng, i, got, want)
			}
		}
	}
}

// TestDiffWarpDivergence runs the curated divergence corpus through both
// engines with the tree walker as oracle.
func TestDiffWarpDivergence(t *testing.T) {
	for _, c := range warpDivergenceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) { runDiff(t, c.c) })
	}
}

// TestWarpFallbackMatchesTree: launches the warp engine cannot serve
// exactly — a SchedSeed-permuted thread order, or a device whose warps are
// wider than maxWarpLanes — run on the tree walker whichever engine was
// asked for, so outputs, LaunchStats, and error strings equal EngineTree's
// on the same device and seed. The multi-lane trap case tells the two
// engines apart: in lockstep no lane reaches the store before lane 5
// traps, while serial execution completes the threads ordered before it.
func TestWarpFallbackMatchesTree(t *testing.T) {
	wide := gpusim.DefaultProps()
	wide.WarpSize = 2 * maxWarpLanes
	launches := []struct {
		name  string
		props gpusim.DeviceProps
		seed  uint64
	}{
		{"sched-seed", gpusim.DefaultProps(), 7},
		{"wide-warp", wide, 0},
	}
	cases := []namedDiffCase{
		{"multi-lane-trap", diffCase{kernel: "k", block: gpusim.D1(32), nInt: 32,
			src: `__global__ void k(int *iout, float *fout) {
  iout[threadIdx.x] = 100 / (threadIdx.x - 5);
}`}},
		{"step-limit", diffCase{kernel: "k", maxSteps: 1000,
			src: `__global__ void k(int *iout, float *fout) {
  int n = 0; while (1) { n++; } iout[0] = n; }`}},
	}
	cases = append(cases, warpDivergenceCases()...)
	for _, l := range launches {
		for _, nc := range cases {
			l, c := l, nc.c.withDefaults()
			t.Run(l.name+"/"+nc.name, func(t *testing.T) {
				prog, err := Compile(c.src, DialectCUDA)
				if err != nil {
					t.Fatal(err)
				}
				run := func(eng Engine) engineRun {
					return runOnDevice(t, prog, c, gpusim.NewDevice(l.props),
						LaunchOpts{Engine: eng, SchedSeed: l.seed})
				}
				tree := run(EngineTree)
				requireSameRun(t, "auto", run(EngineAuto), tree, c, false)
				requireSameRun(t, "warp", run(EngineWarp), tree, c, false)
			})
		}
	}
}
