package minicuda

import (
	"fmt"
	"math/rand"
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
	for _, c := range diffEdgeCases() {
		srcs = append(srcs, c.src)
	}
	for _, c := range warpDivergenceCases() {
		srcs = append(srcs, c.c.src)
	}
	return srcs
}

// LexReference hands the pre-rewrite lexer (lexref_test.go) to the
// external tests that compare Lex with it over the lab sources.
var LexReference = lexReference
