package minicuda

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"webgpu/internal/gpusim"
)

// Codec round-trip differential tests: every kernel in the diff corpus is
// compiled, serialized with EncodeProgram, decoded with DecodeProgram, and
// the decoded program is launched against the original (tree walker as
// oracle). Outputs, LaunchStats, and error strings must be identical —
// a decoded artifact served from the durable store must be
// indistinguishable from a fresh compile.

// roundTrip encodes and decodes prog, asserting encode determinism: the
// re-encoded decoded program must be byte-identical to the first stream,
// which pins down both directions of the codec at once.
func roundTrip(t *testing.T, prog *Program) *Program {
	t.Helper()
	data, err := EncodeProgram(prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeProgram(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	again, err := EncodeProgram(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoded stream differs: %d vs %d bytes", len(data), len(again))
	}
	return dec
}

// runCodecDiff compiles the case, round-trips it through the codec, and
// compares the decoded program's behaviour on both engines against the
// original under the tree walker.
func runCodecDiff(t *testing.T, c diffCase) {
	t.Helper()
	c = c.withDefaults()
	prog, err := Compile(c.src, DialectCUDA)
	if err != nil {
		t.Fatalf("compile failed:\n%s\nerror: %v", c.src, err)
	}
	dec := roundTrip(t, prog)

	// Structural invariants a decoded program must preserve.
	if !reflect.DeepEqual(dec.Kernels(), prog.Kernels()) {
		t.Fatalf("kernels diverge: %v vs %v", dec.Kernels(), prog.Kernels())
	}
	if dec.ConstSize() != prog.ConstSize() {
		t.Fatalf("const size diverges: %d vs %d", dec.ConstSize(), prog.ConstSize())
	}
	if dec.usesBarrier != prog.usesBarrier {
		t.Fatalf("usesBarrier diverges")
	}
	if dec.InstructionCount() != prog.InstructionCount() {
		t.Fatalf("instruction count diverges: %d vs %d",
			dec.InstructionCount(), prog.InstructionCount())
	}

	tree := runOnEngine(t, prog, c, launchTree)
	requireSameRun(t, "decoded tree", runOnEngine(t, dec, c, launchTree), tree, c, false)
	requireSameRun(t, "decoded warp", runOnEngine(t, dec, c, launchWarp), tree, c, true)
}

// TestCodecDiffRandomExpressions round-trips the 700-kernel random
// expression corpus (same seed as TestDiffRandomExpressions).
func TestCodecDiffRandomExpressions(t *testing.T) {
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
		runCodecDiff(t, diffCase{src: src, kernel: "probe", extra: scalarArgs(e)})
	}
}

// TestCodecDiffRandomStatements round-trips the 300-kernel random
// statement corpus (same seed as TestDiffRandomStatements).
func TestCodecDiffRandomStatements(t *testing.T) {
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
		runCodecDiff(t, diffCase{src: src, kernel: "probe", extra: scalarArgs(e)})
	}
}

// TestCodecDiffEdgeCases round-trips the curated trap/barrier/atomic
// corpus — the kernels whose error strings and partial stats are most
// sensitive to token positions surviving serialization.
func TestCodecDiffEdgeCases(t *testing.T) {
	for i, c := range diffEdgeCases() {
		i, c := i, c
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) { runCodecDiff(t, c) })
	}
}

// TestCodecDiffWarpDivergence round-trips the divergence corpus.
func TestCodecDiffWarpDivergence(t *testing.T) {
	for _, c := range warpDivergenceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) { runCodecDiff(t, c.c) })
	}
}

// TestCodecOpenCLAndOpenACC round-trips programs from the other two
// dialects: the codec must preserve Dialect and the analyzed tree
// regardless of the front end that produced it.
func TestCodecOpenCLDialect(t *testing.T) {
	src := `__kernel void scale(__global int *iout, __global float *fout, int n) {
  int i = get_global_id(0);
  if (i < n) { iout[i] = i * 2; }
}`
	prog, err := Compile(src, DialectOpenCL)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dec := roundTrip(t, prog)
	if dec.Dialect != prog.Dialect {
		t.Fatalf("dialect diverges: %v vs %v", dec.Dialect, prog.Dialect)
	}
	c := diffCase{src: src, kernel: "scale", block: gpusim.D1(8), nInt: 8,
		extra: []Arg{Int(8)}}
	tree := runOnEngine(t, prog, c, launchTree)
	got := runOnEngine(t, dec, c, launchWarp)
	if got.errStr != tree.errStr || !reflect.DeepEqual(got.ints, tree.ints) {
		t.Fatalf("opencl decoded divergence: %+v vs %+v", got, tree)
	}
}

// TestCodecRejectsCorruption feeds the decoder truncations of a valid
// stream at every offset plus seeded random byte flips: every mutation
// must yield an error (or, rarely, a well-formed program) — never a panic.
// The seed is replayable via CHAOS_SEED semantics used elsewhere; here a
// fixed seed keeps the corpus deterministic.
func TestCodecRejectsCorruption(t *testing.T) {
	src := `__constant__ int tab[4];
__device__ int helper(int n) { return n * 3; }
__global__ void k(int *iout, float *fout, int a) {
  __shared__ int s[8];
  s[threadIdx.x % 8] = helper(a);
  __syncthreads();
  for (int i = 0; i < 4; i++) { iout[0] += s[i] + tab[i]; }
  fout[0] = (float)a * 0.5f;
}`
	prog, err := Compile(src, DialectCUDA)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	data, err := EncodeProgram(prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Truncation at every prefix length.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeProgram(data[:n]); err == nil {
			t.Fatalf("decode accepted %d-byte truncation of %d-byte stream", n, len(data))
		}
	}
	// Random single- and multi-byte flips.
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), data...)
		for f := 0; f <= rng.Intn(3); f++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		// Must not panic; an error (the common case) or a still-valid
		// program (flip in a string table entry, say) are both fine.
		p, err := DecodeProgram(mut)
		if err == nil && p == nil {
			t.Fatalf("trial %d: nil program without error", trial)
		}
	}
	// Version skew must be reported as such.
	bad := append([]byte(nil), data...)
	bad[len(codecMagic)] = 0x7f // version varint
	if _, err := DecodeProgram(bad); err == nil {
		t.Fatal("decode accepted bumped version")
	}
}

// TestCodecRejectsTargetedCorruption: streams that are well-formed up to
// one wrong field must fail the decode with the named reason.
func TestCodecRejectsTargetedCorruption(t *testing.T) {
	prog, err := Compile(`__global__ void k(int *iout) { iout[threadIdx.x] = min(1, 2); }`, DialectCUDA)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	data, err := EncodeProgram(prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{"unknown builtin base", func(b []byte) []byte {
			return bytes.Replace(b, []byte("threadIdx"), []byte("threadIdy"), 1)
		}, `unknown builtin variable "threadIdy"`},
		// The frame is well-formed, but no engine has the builtin: the
		// tree would fail only when it reached the call.
		{"builtin call the lowerer has no code for", func(b []byte) []byte {
			return bytes.Replace(b, []byte("min"), []byte("mzn"), 1)
		}, "internal compiler error: unimplemented builtin in k"},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }, "1 trailing bytes"},
	}
	for _, c := range cases {
		_, err := DecodeProgram(c.mutate(append([]byte(nil), data...)))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: decode error = %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}
