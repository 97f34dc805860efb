package minicuda

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// DiffCorpusSources hands the differential corpus (the random expression
// and statement kernels of diff_test.go under their seeds, the edge cases
// and the divergence cases; all CUDA) to hash_test.go, which is an
// external test package because it also needs internal/labs.
func DiffCorpusSources() []string {
	var srcs []string
	rng := rand.New(rand.NewSource(771177))
	g := &exprGen{rng: rng}
	for trial := 0; trial < 700; trial++ {
		ie := g.intExpr(3 + rng.Intn(2))
		fe := g.floatExpr(3 + rng.Intn(2))
		randEnv(rng)
		srcs = append(srcs, fmt.Sprintf(`
__global__ void probe(int *iout, float *fout, int a, int b, float x, float y) {
  iout[0] = %s;
  fout[0] = %s;
}`, ie.src, fe.src))
	}
	rng = rand.New(rand.NewSource(55004400))
	sg := &stmtGen{rng: rng, eg: &exprGen{rng: rng}}
	for trial := 0; trial < 300; trial++ {
		randEnv(rng)
		srcs = append(srcs, fmt.Sprintf(`
__global__ void probe(int *iout, float *fout, int a, int b, float x, float y) {
  int v0 = a; int v1 = b; int v2 = a - b; int v3 = 1; int arr[8];
  float f0 = x; float f1 = y;
%s
  iout[0] = v0 + v1 + v2 + v3 + arr[0]; fout[0] = f0 + f1;
}`, sg.block(2+rng.Intn(2), false)))
	}
	return append(srcs, DiffEdgeSources()...)
}

// DiffEdgeSources is the curated tail of the differential corpus: the edge
// cases and the divergence cases.
func DiffEdgeSources() []string {
	var srcs []string
	for _, c := range diffEdgeCases() {
		srcs = append(srcs, c.src)
	}
	for _, c := range warpDivergenceCases() {
		srcs = append(srcs, c.c.src)
	}
	return srcs
}

// RequireEnginesAgree launches kernel k of prog, when it has the
// differential skeleton k(int *iout, float *fout), on Launch and on the
// oracle — one thread, where the engines agree exactly even on a racy or
// trapping kernel, and a small step budget — and fails unless the runs are
// requireSameRun-equal.
func RequireEnginesAgree(t *testing.T, src string, prog *Program) {
	t.Helper()
	k := prog.Kernel("k")
	if k == nil || len(k.Params) != 2 ||
		!k.Params[0].Type.Equal(PtrTo(TypeInt, SpaceGlobal)) ||
		!k.Params[1].Type.Equal(PtrTo(TypeFloat, SpaceGlobal)) {
		return
	}
	c := diffCase{src: src, kernel: "k", maxSteps: 1 << 12}.withDefaults()
	requireSameRun(t, "warp", runOnEngine(t, prog, c, launchWarp), runOnEngine(t, prog, c, launchTree), c, true)
}

// LexReference hands the pre-rewrite lexer (lexref_test.go) to the
// external tests that compare Lex with it over the lab sources.
var LexReference = lexReference

// Lower lowers prog as its first launch does and returns the internal
// compiler error, if there is one.
func Lower(prog *Program) error {
	_, err := prog.warp()
	return err
}

// CountLowerings counts the programs lowered until the test ends.
func CountLowerings(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	testHookLowered = func() { n.Add(1) }
	t.Cleanup(func() { testHookLowered = nil })
	return &n
}
