package minicuda

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(src, DialectCUDA)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func compileErr(t *testing.T, src string, wantSubstr string) {
	t.Helper()
	_, err := Compile(src, DialectCUDA)
	if err == nil {
		t.Fatalf("Compile succeeded, want error containing %q", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error = %q, want substring %q", err, wantSubstr)
	}
}

const vecAddSrc = `
__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) out[i] = in1[i] + in2[i];
}
`

func TestCompileVecAdd(t *testing.T) {
	p := mustCompile(t, vecAddSrc)
	if p.Kernel("vecAdd") == nil {
		t.Fatal("kernel vecAdd not found")
	}
	if got := p.Kernels(); len(got) != 1 || got[0] != "vecAdd" {
		t.Errorf("Kernels() = %v", got)
	}
}

func TestCompileSharedLayout(t *testing.T) {
	p := mustCompile(t, `
#define TILE 16
__global__ void k(float *a) {
  __shared__ float tileA[TILE][TILE];
  __shared__ float tileB[TILE][TILE];
  tileA[threadIdx.y][threadIdx.x] = a[0];
  tileB[threadIdx.y][threadIdx.x] = tileA[0][0];
  __syncthreads();
  a[0] = tileB[threadIdx.y][threadIdx.x];
}
`)
	fn := p.Kernel("k")
	if fn.SharedUse != 2*16*16*4 {
		t.Errorf("SharedUse = %d, want %d", fn.SharedUse, 2*16*16*4)
	}
}

func TestCompileConstantLayout(t *testing.T) {
	p := mustCompile(t, `
__constant__ float mask[5][5];
__global__ void k(float *a) { a[0] = mask[1][2]; }
`)
	if p.ConstSize() != 100 {
		t.Errorf("ConstSize = %d, want 100", p.ConstSize())
	}
	off, ok := p.ConstOffset("mask")
	if !ok || off != 0 {
		t.Errorf("ConstOffset = %d, %v", off, ok)
	}
}

func TestCompileDeviceFunction(t *testing.T) {
	p := mustCompile(t, `
__device__ float square(float x) { return x * x; }
__global__ void k(float *a, int n) {
  int i = threadIdx.x;
  if (i < n) a[i] = square(a[i]);
}
`)
	if p.Kernel("square") != nil {
		t.Error("device function listed as kernel")
	}
}

// --- Diagnostics ------------------------------------------------------------

func TestErrNoKernel(t *testing.T) {
	compileErr(t, `__device__ int f(int x) { return x; }`, "no __global__ kernel")
}

func TestErrUndeclared(t *testing.T) {
	compileErr(t, `__global__ void k(float *a) { a[0] = bogus; }`, "undeclared identifier")
}

func TestErrRedeclared(t *testing.T) {
	compileErr(t, `__global__ void k(float *a) { int x; float x; }`, "redeclaration")
}

func TestErrKernelReturnsValue(t *testing.T) {
	compileErr(t, `__global__ int k(float *a) { return 1; }`, "must return void")
}

func TestErrCallKernelFromDevice(t *testing.T) {
	compileErr(t, `
__global__ void inner(float *a) { a[0] = 1; }
__global__ void outer(float *a) { inner(a); }
`, "cannot be called from device code")
}

func TestErrBreakOutsideLoop(t *testing.T) {
	compileErr(t, `__global__ void k(float *a) { break; }`, "break outside")
}

func TestErrWrongArgCount(t *testing.T) {
	compileErr(t, `
__device__ int f(int a, int b) { return a + b; }
__global__ void k(int *o) { o[0] = f(1); }
`, "expects 2 arguments")
}

func TestErrAssignToArray(t *testing.T) {
	compileErr(t, `__global__ void k(float *a) { __shared__ float s[4]; s = a; }`, "not assignable")
}

func TestErrSubscriptNonPointer(t *testing.T) {
	compileErr(t, `__global__ void k(float *a) { int x; a[0] = x[1]; }`, "not a pointer or array")
}

func TestErrModOnFloat(t *testing.T) {
	compileErr(t, `__global__ void k(float *a) { a[0] = a[1] % a[2]; }`, "must be integers")
}

func TestErrCUDABuiltinInName(t *testing.T) {
	compileErr(t, `__global__ void k(float *a) { a[0] = nonexistent(1); }`, "undeclared function")
}

func TestErrBareDim3(t *testing.T) {
	compileErr(t, `__global__ void k(int *a) { a[0] = threadIdx; }`, ".x/.y/.z")
}

func TestErrSyntax(t *testing.T) {
	compileErr(t, `__global__ void k(float *a) { if a[0] {} }`, `expected "("`)
}

func TestErrSwitchUnsupported(t *testing.T) {
	compileErr(t, `__global__ void k(int *a) { switch (a[0]) {} }`, "not supported")
}

func TestErrAggregateInit(t *testing.T) {
	compileErr(t, `__global__ void k(int *a) { int v[2] = {1, 2}; }`, "aggregate initializers")
}

func TestErrOpenCLBuiltinInCUDA(t *testing.T) {
	compileErr(t, `__global__ void k(float *a) { int i = get_global_id(0); a[i] = 0; }`,
		"OpenCL builtin")
}

// TestErrCUDAIndexVarInOpenCL: CUDA's index variables are the wrong
// dialect in an OpenCL program, whether read through a member or bare.
func TestErrCUDAIndexVarInOpenCL(t *testing.T) {
	for _, row := range []struct{ expr, name string }{
		{"threadIdx.x", "threadIdx"},
		{"blockIdx.y", "blockIdx"},
		{"blockDim.z", "blockDim"},
		{"gridDim.x", "gridDim"},
		{"threadIdx", "threadIdx"},
	} {
		src := "__kernel void k(__global float *a) { int i = " + row.expr + "; a[i] = 0; }"
		_, err := Compile(src, DialectOpenCL)
		var ce *CompileError
		if !errors.As(err, &ce) || ce.Code != CodeWrongDialect || ce.Name != row.name {
			t.Errorf("%s: error = %v, want %s on %q", row.expr, err, CodeWrongDialect, row.name)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Compile("__global__ void k(float *a) {\n  a[0] = bogus;\n}", DialectCUDA)
	ce, ok := err.(*CompileError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ce.Line != 2 {
		t.Errorf("error line = %d, want 2", ce.Line)
	}
}

func TestOpenCLKernel(t *testing.T) {
	src := `
__kernel void vadd(__global const float *a, __global const float *b,
                   __global float *c, int n) {
  int i = get_global_id(0);
  if (i < n) c[i] = a[i] + b[i];
}
`
	p, err := Compile(src, DialectOpenCL)
	if err != nil {
		t.Fatalf("OpenCL compile: %v", err)
	}
	if p.Kernel("vadd") == nil {
		t.Fatal("kernel vadd not found")
	}
	// The same source must NOT compile as CUDA.
	if _, err := Compile(src, DialectCUDA); err == nil {
		t.Error("OpenCL source compiled under CUDA dialect")
	}
}

// TestCompileErrorKeepsNoSource: a compile error outlives its compile
// (the program cache keeps it as the source's verdict), so the name it
// carries must not pin the preprocessed source it was sliced from.
func TestCompileErrorKeepsNoSource(t *testing.T) {
	const n, pad = 32, 1 << 16
	errs := make([]error, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range errs {
		src := fmt.Sprintf("__global__ void k() {\n%s\n  undeclared%d = 1;\n}", strings.Repeat(" ", pad), i)
		_, errs[i] = Compile(src, DialectCUDA)
		var ce *CompileError
		if !errors.As(errs[i], &ce) || ce.Code != CodeUndeclared || ce.Name != fmt.Sprintf("undeclared%d", i) {
			t.Fatalf("error %v", errs[i])
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > n*pad/4 {
		t.Errorf("%d compile errors hold %d bytes of heap; their sources are %d bytes each", n, grew, pad)
	}
	runtime.KeepAlive(errs)
}
