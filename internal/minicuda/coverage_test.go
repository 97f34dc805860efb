package minicuda

import (
	"strings"
	"testing"

	"webgpu/internal/gpusim"
)

// Tests targeting interpreter and helper paths not reached by the
// lab-shaped kernels: pointer comparisons, float comparisons driving
// branches, unsigned comparisons, math builtins, atomics variants,
// OpenCL work-item dimensions, constant folding, and String methods used
// in diagnostics.

func TestPointerComparisons(t *testing.T) {
	got := runScalarKernel(t, `
__global__ void k(float *out) {
  float *p = out + 2;
  float *q = out + 5;
  out[0] = (float)(p < q);
  out[1] = (float)(p == q);
  out[2] = (float)(p != q);
  out[3] = (float)(q - p);   // pointer difference in elements
  out[4] = (float)(p >= out);
  out[5] = (float)(q <= out);
}`, 6)
	want := []float32{1, 0, 1, 3, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFloatComparisonsAndLogic(t *testing.T) {
	got := runScalarKernel(t, `
__global__ void k(float *out) {
  float a = 1.5f;
  float b = 2.5f;
  out[0] = (float)(a < b);
  out[1] = (float)(a >= b);
  out[2] = (float)(a == 1.5f);
  out[3] = (float)(a != b);
  out[4] = (float)(a <= 1.5f);
  out[5] = (float)(b > 100.0f);
  out[6] = (a < b && b < 3.0f) ? 1.0f : 0.0f;
  out[7] = (a > b || b > 2.0f) ? 1.0f : 0.0f;
  out[8] = (float)(!(a < b));
}`, 9)
	want := []float32{1, 0, 1, 1, 1, 0, 1, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestUnsignedComparisonSemantics(t *testing.T) {
	got := runScalarKernel(t, `
__global__ void k(float *out) {
  unsigned int big = 0xFFFFFFF0u; // huge as unsigned, -16 as signed
  unsigned int one = 1u;
  out[0] = (float)(big > one);   // unsigned compare: true
  int sbig = (int)big;
  out[1] = (float)(sbig > 1);    // signed compare: false
  out[2] = (float)(big >= 0u);
  out[3] = (float)(one != big);
  out[4] = (float)(one <= big);
  out[5] = (float)(big == big);
}`, 6)
	want := []float32{1, 0, 1, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMathBuiltins(t *testing.T) {
	got := runScalarKernel(t, `
__global__ void k(float *out) {
  out[0] = floorf(2.7f);
  out[1] = ceilf(2.2f);
  out[2] = fabsf(-3.5f);
  out[3] = powf(2.0f, 10.0f);
  out[4] = expf(0.0f);
  out[5] = logf(1.0f);
  out[6] = rsqrtf(4.0f);
  out[7] = (float)abs(-9);
  out[8] = fminf(1.0f, -2.0f);
  out[9] = sinf(0.0f);
  out[10] = cosf(0.0f);
  out[11] = (float)min(3, 7);
  out[12] = (float)max(3, 7);
  out[13] = fmaxf(1.5f, 0.5f);
}`, 14)
	want := []float32{2, 3, 3.5, 1024, 1, 0, 0.5, 9, -2, 0, 1, 3, 7, 1.5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAtomicVariantsFromSource(t *testing.T) {
	d := gpusim.NewDefaultDevice()
	p := mustCompile(t, `
__global__ void k(int *v, float *f) {
  atomicSub(&v[0], 3);
  atomicMax(&v[1], (int)threadIdx.x);
  atomicMin(&v[2], (int)threadIdx.x);
  if (threadIdx.x == 0) {
    atomicExch(&v[3], 77);
    atomicCAS(&v[4], 5, 9);
    atomicExch(&f[0], 2.5f);
    atomicAdd(&f[1], -0.5f); // CUDA has no float atomicSub
  }
}`)
	v, _ := d.MallocInt32(5, []int32{100, -1, 1 << 30, 0, 5})
	f, _ := d.MallocFloat32(2, []float32{0, 8})
	_, err := p.Launch(d, "k", LaunchOpts{Grid: gpusim.D1(1), Block: gpusim.D1(32)},
		IntPtr(v), FloatPtr(f))
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := d.ReadInt32(v, 5)
	fv, _ := d.ReadFloat32(f, 2)
	if iv[0] != 100-3*32 {
		t.Errorf("atomicSub = %d", iv[0])
	}
	if iv[1] != 31 || iv[2] != 0 {
		t.Errorf("max/min = %d %d", iv[1], iv[2])
	}
	if iv[3] != 77 || iv[4] != 9 {
		t.Errorf("exch/cas = %d %d", iv[3], iv[4])
	}
	if fv[0] != 2.5 || fv[1] != 7.5 {
		t.Errorf("float atomics = %v", fv)
	}
}

func TestSharedAtomicFloat(t *testing.T) {
	d := gpusim.NewDefaultDevice()
	p := mustCompile(t, `
__global__ void k(float *out) {
  __shared__ float acc;
  if (threadIdx.x == 0) acc = 0.0f;
  __syncthreads();
  atomicAdd(&acc, 0.5f);
  __syncthreads();
  if (threadIdx.x == 0) out[0] = acc;
}`)
	out, _ := d.Malloc(4)
	if _, err := p.Launch(d, "k", LaunchOpts{Grid: gpusim.D1(1), Block: gpusim.D1(64)},
		FloatPtr(out)); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadFloat32(out, 1)
	if got[0] != 32 {
		t.Errorf("shared float atomic = %v, want 32", got[0])
	}
}

func TestOpenCLWorkItemDimensions(t *testing.T) {
	src := `
__kernel void probe(__global int *out) {
  if (get_local_id(0) == 0 && get_local_id(1) == 0) {
    int g = get_group_id(1);
    out[g * 6 + 0] = get_global_id(1);
    out[g * 6 + 1] = get_local_size(0);
    out[g * 6 + 2] = get_local_size(1);
    out[g * 6 + 3] = get_num_groups(1);
    out[g * 6 + 4] = get_global_size(0);
    out[g * 6 + 5] = get_global_size(1);
  }
}`
	p, err := Compile(src, DialectOpenCL)
	if err != nil {
		t.Fatal(err)
	}
	d := gpusim.NewDefaultDevice()
	out, _ := d.Malloc(12 * 4)
	_, err = p.Launch(d, "probe", LaunchOpts{Grid: gpusim.D2(1, 2), Block: gpusim.D2(4, 2)},
		IntPtr(out))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadInt32(out, 12)
	// Group 1 in dim 1: global id = 1*2+0 = 2, local sizes 4,2, groups 2,
	// global sizes 4, 4.
	if got[6] != 2 || got[7] != 4 || got[8] != 2 || got[9] != 2 || got[10] != 4 || got[11] != 4 {
		t.Errorf("work-item dims = %v", got)
	}
}

func TestThreadIdxYZ(t *testing.T) {
	d := gpusim.NewDefaultDevice()
	p := mustCompile(t, `
__global__ void k(int *out) {
  int idx = threadIdx.z * blockDim.y * blockDim.x + threadIdx.y * blockDim.x + threadIdx.x;
  out[idx] = blockIdx.z * 100 + threadIdx.z * 10 + threadIdx.y;
}`)
	out, _ := d.Malloc(8 * 4)
	if _, err := p.Launch(d, "k", LaunchOpts{Grid: gpusim.D1(1), Block: gpusim.Dim3{X: 2, Y: 2, Z: 2}},
		IntPtr(out)); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadInt32(out, 8)
	// thread (x=1,y=1,z=1) -> index 7, value 0*100 + 1*10 + 1 = 11.
	if got[7] != 11 {
		t.Errorf("out = %v", got)
	}
}

func TestConstantDimFolding(t *testing.T) {
	p := mustCompile(t, `
#define BS 32
__global__ void k(float *a) {
  __shared__ float t1[BS * 2];         // 64
  __shared__ float t2[(BS + 32) / 4];  // 16
  __shared__ float t3[1 << 3];         // 8
  __shared__ float t4[BS > 16 ? 4 : 2]; // 4
  t1[0] = 0.0f; t2[0] = 0.0f; t3[0] = 0.0f; t4[0] = 0.0f;
  a[0] = t1[0] + t2[0] + t3[0] + t4[0];
}`)
	fn := p.Kernel("k")
	if fn.SharedUse != (64+16+8+4)*4 {
		t.Errorf("SharedUse = %d, want %d", fn.SharedUse, (64+16+8+4)*4)
	}
}

func TestDiagnosticStrings(t *testing.T) {
	// Token/Type String methods are used in diagnostics; pin them.
	if TokIdent.String() != "identifier" || TokFloatLit.String() != "float literal" {
		t.Error("TokKind.String broken")
	}
	tok := Token{Kind: TokPunct, Text: "{", Line: 3, Col: 7}
	if tok.String() != `"{"` || tok.Pos() != "3:7" {
		t.Errorf("token string/pos = %s %s", tok.String(), tok.Pos())
	}
	cases := map[string]*Type{
		"unsigned char": TypeUChar,
		"float*":        PtrTo(TypeFloat, SpaceGlobal),
		"int[4][2]":     ArrayOf(ArrayOf(TypeInt, 2, SpaceShared), 4, SpaceShared),
		"void":          TypeVoid,
		"bool":          TypeBool,
	}
	for want, typ := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type.String = %q, want %q", got, want)
		}
	}
	if SpaceConst.String() != "constant" || SpaceLocal.String() != "local" {
		t.Error("MemSpace.String broken")
	}
	if DialectOpenACC.String() != "OpenACC" || DialectCUDA.String() != "CUDA" {
		t.Error("Dialect.String broken")
	}
}

func TestUsesBarrierFlag(t *testing.T) {
	with := mustCompile(t, `__global__ void k(float *a) { __syncthreads(); a[0] = 1.0f; }`)
	if !with.usesBarrier {
		t.Error("barrier program not flagged")
	}
	without := mustCompile(t, `__global__ void k(float *a) { a[0] = 1.0f; }`)
	if without.usesBarrier {
		t.Error("barrier-free program flagged")
	}
}

func TestCharLiteralForms(t *testing.T) {
	got := runScalarKernel(t, `
__global__ void k(float *out) {
  out[0] = (float)'\t';
  out[1] = (float)'\\';
  out[2] = (float)'\0';
  out[3] = (float)'\'';
}`, 4)
	want := []float32{9, 92, 0, 39}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBadCharLiteral(t *testing.T) {
	compileErr(t, `__global__ void k(int *o) { o[0] = '\q'; }`, "invalid character literal")
}

func TestStripCommentsPreservesStrings(t *testing.T) {
	// Comment markers inside string literals must survive.
	in := `x = "//not a comment"; // real comment
y = "/*also not*/";`
	out := StripComments(in)
	if !strings.Contains(out, `"//not a comment"`) {
		t.Errorf("string literal damaged: %q", out)
	}
	if strings.Contains(out, "real comment") {
		t.Errorf("line comment kept: %q", out)
	}
	if !strings.Contains(out, `"/*also not*/"`) {
		t.Errorf("block marker in string damaged: %q", out)
	}
}

func TestCommaExpressionStatement(t *testing.T) {
	got := runScalarKernel(t, `
__global__ void k(float *out) {
  int a = 0;
  int b = 0;
  a = 1, b = 2;
  out[0] = (float)(a + b);
}`, 1)
	if got[0] != 3 {
		t.Errorf("comma stmt = %v", got[0])
	}
}
