package minicuda

import (
	"fmt"
	"math/rand"
	"testing"

	"webgpu/internal/gpusim"
)

// Differential testing: generate random integer and float expression
// trees, render them to CUDA-C, compile and execute them through the full
// lexer/parser/sema/interpreter/simulator stack, and compare against a Go
// oracle that applies the same int32-wraparound / float32-rounding
// semantics. Any divergence is a compiler or interpreter bug.

type exprGen struct {
	rng *rand.Rand
}

// env is the fixed variable environment the kernels declare.
type env struct {
	a, b int32
	x, y float32
}

// iExpr is a generated integer expression: C source + oracle.
type iExpr struct {
	src  string
	eval func(e env) int32
}

// fExpr is a generated float expression.
type fExpr struct {
	src  string
	eval func(e env) float32
}

func (g *exprGen) intExpr(depth int) iExpr {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			v := int32(g.rng.Intn(64) - 16)
			return iExpr{fmt.Sprintf("%d", v), func(env) int32 { return v }}
		case 1:
			return iExpr{"a", func(e env) int32 { return e.a }}
		case 2:
			return iExpr{"b", func(e env) int32 { return e.b }}
		default:
			// Cast of a float leaf keeps magnitudes tiny and exact.
			f := g.floatLeaf()
			return iExpr{fmt.Sprintf("(int)(%s)", f.src),
				func(e env) int32 { return int32(f.eval(e)) }}
		}
	}
	l := g.intExpr(depth - 1)
	r := g.intExpr(depth - 1)
	switch g.rng.Intn(12) {
	case 0:
		return iExpr{fmt.Sprintf("(%s + %s)", l.src, r.src),
			func(e env) int32 { return l.eval(e) + r.eval(e) }}
	case 1:
		return iExpr{fmt.Sprintf("(%s - %s)", l.src, r.src),
			func(e env) int32 { return l.eval(e) - r.eval(e) }}
	case 2:
		return iExpr{fmt.Sprintf("(%s * %s)", l.src, r.src),
			func(e env) int32 { return l.eval(e) * r.eval(e) }}
	case 3:
		// Division with a guaranteed non-zero divisor; avoid the single
		// overflowing case MinInt32 / -1 by forcing the divisor positive.
		return iExpr{fmt.Sprintf("(%s / ((%s & 7) + 1))", l.src, r.src),
			func(e env) int32 { return l.eval(e) / ((r.eval(e) & 7) + 1) }}
	case 4:
		return iExpr{fmt.Sprintf("(%s %% ((%s & 7) + 1))", l.src, r.src),
			func(e env) int32 { return l.eval(e) % ((r.eval(e) & 7) + 1) }}
	case 5:
		return iExpr{fmt.Sprintf("(%s & %s)", l.src, r.src),
			func(e env) int32 { return l.eval(e) & r.eval(e) }}
	case 6:
		return iExpr{fmt.Sprintf("(%s | %s)", l.src, r.src),
			func(e env) int32 { return l.eval(e) | r.eval(e) }}
	case 7:
		return iExpr{fmt.Sprintf("(%s ^ %s)", l.src, r.src),
			func(e env) int32 { return l.eval(e) ^ r.eval(e) }}
	case 8:
		return iExpr{fmt.Sprintf("(%s << (%s & 7))", l.src, r.src),
			func(e env) int32 { return l.eval(e) << (uint32(r.eval(e)) & 7) }}
	case 9:
		return iExpr{fmt.Sprintf("(%s >> (%s & 7))", l.src, r.src),
			func(e env) int32 { return l.eval(e) >> (uint32(r.eval(e)) & 7) }}
	case 10:
		op := []string{"<", "<=", ">", ">=", "==", "!="}[g.rng.Intn(6)]
		return iExpr{fmt.Sprintf("(%s %s %s)", l.src, op, r.src),
			func(e env) int32 {
				lv, rv := l.eval(e), r.eval(e)
				var res bool
				switch op {
				case "<":
					res = lv < rv
				case "<=":
					res = lv <= rv
				case ">":
					res = lv > rv
				case ">=":
					res = lv >= rv
				case "==":
					res = lv == rv
				case "!=":
					res = lv != rv
				}
				if res {
					return 1
				}
				return 0
			}}
	default:
		c := g.intExpr(depth - 1)
		return iExpr{fmt.Sprintf("(%s ? %s : %s)", c.src, l.src, r.src),
			func(e env) int32 {
				if c.eval(e) != 0 {
					return l.eval(e)
				}
				return r.eval(e)
			}}
	}
}

func (g *exprGen) floatLeaf() fExpr {
	switch g.rng.Intn(3) {
	case 0:
		v := float32(g.rng.Intn(64)-16) / 4
		return fExpr{fmt.Sprintf("%gf", v), func(env) float32 { return v }}
	case 1:
		return fExpr{"x", func(e env) float32 { return e.x }}
	default:
		return fExpr{"y", func(e env) float32 { return e.y }}
	}
}

func (g *exprGen) floatExpr(depth int) fExpr {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		if g.rng.Intn(5) == 0 {
			i := g.intExpr(0)
			return fExpr{fmt.Sprintf("(float)(%s)", i.src),
				func(e env) float32 { return float32(i.eval(e)) }}
		}
		return g.floatLeaf()
	}
	l := g.floatExpr(depth - 1)
	r := g.floatExpr(depth - 1)
	switch g.rng.Intn(5) {
	case 0:
		return fExpr{fmt.Sprintf("(%s + %s)", l.src, r.src),
			func(e env) float32 { return l.eval(e) + r.eval(e) }}
	case 1:
		return fExpr{fmt.Sprintf("(%s - %s)", l.src, r.src),
			func(e env) float32 { return l.eval(e) - r.eval(e) }}
	case 2:
		return fExpr{fmt.Sprintf("(%s * %s)", l.src, r.src),
			func(e env) float32 { return l.eval(e) * r.eval(e) }}
	case 3:
		// Division with a denominator bounded away from zero.
		return fExpr{fmt.Sprintf("(%s / (fabsf(%s) + 1.0f))", l.src, r.src),
			func(e env) float32 {
				d := r.eval(e)
				if d < 0 {
					d = -d
				}
				return l.eval(e) / (d + 1)
			}}
	default:
		c := g.intExpr(depth - 1)
		return fExpr{fmt.Sprintf("(%s ? %s : %s)", c.src, l.src, r.src),
			func(e env) float32 {
				if c.eval(e) != 0 {
					return l.eval(e)
				}
				return r.eval(e)
			}}
	}
}

func TestRandomExpressionsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20160523))
	g := &exprGen{rng: rng}
	dev := gpusim.NewDefaultDevice()

	const trials = 250
	for trial := 0; trial < trials; trial++ {
		ie := g.intExpr(3 + rng.Intn(2))
		fe := g.floatExpr(3 + rng.Intn(2))
		e := env{
			a: int32(rng.Intn(200) - 100),
			b: int32(rng.Intn(200) - 100),
			x: float32(rng.Intn(160)-80) / 8,
			y: float32(rng.Intn(160)-80) / 8,
		}
		src := fmt.Sprintf(`
__global__ void probe(int *iout, float *fout, int a, int b, float x, float y) {
  iout[0] = %s;
  fout[0] = %s;
}`, ie.src, fe.src)

		prog, err := Compile(src, DialectCUDA)
		if err != nil {
			t.Fatalf("trial %d: compile failed for\n%s\nerror: %v", trial, src, err)
		}
		iout, err := dev.Malloc(4)
		if err != nil {
			t.Fatal(err)
		}
		fout, err := dev.Malloc(4)
		if err != nil {
			t.Fatal(err)
		}
		_, err = prog.Launch(dev, "probe",
			LaunchOpts{Grid: gpusim.D1(1), Block: gpusim.D1(1)},
			IntPtr(iout), FloatPtr(fout),
			Int(int(e.a)), Int(int(e.b)), Float(e.x), Float(e.y))
		if err != nil {
			t.Fatalf("trial %d: launch failed for\n%s\nerror: %v", trial, src, err)
		}
		gotI, _ := dev.ReadInt32(iout, 1)
		gotF, _ := dev.ReadFloat32(fout, 1)
		wantI := ie.eval(e)
		wantF := fe.eval(e)
		if gotI[0] != wantI {
			t.Fatalf("trial %d: int mismatch: got %d want %d\nenv %+v\nexpr %s",
				trial, gotI[0], wantI, e, ie.src)
		}
		if gotF[0] != wantF {
			t.Fatalf("trial %d: float mismatch: got %v want %v\nenv %+v\nexpr %s",
				trial, gotF[0], wantF, e, fe.src)
		}
	}
}

// The same generator exercised through compound-assignment and loop forms:
// the expression is accumulated in a loop so statement execution paths are
// also covered.
func TestRandomExpressionsInLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	g := &exprGen{rng: rng}
	dev := gpusim.NewDefaultDevice()

	for trial := 0; trial < 60; trial++ {
		ie := g.intExpr(2)
		e := env{a: int32(rng.Intn(40) - 20), b: int32(rng.Intn(40) - 20),
			x: float32(rng.Intn(40)-20) / 4, y: float32(rng.Intn(40)-20) / 4}
		iters := 1 + rng.Intn(6)
		src := fmt.Sprintf(`
__global__ void probe(int *iout, int a, int b, float x, float y, int iters) {
  int acc = 0;
  for (int k = 0; k < iters; k++) {
    acc += %s + k;
  }
  iout[0] = acc;
}`, ie.src)
		prog, err := Compile(src, DialectCUDA)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		iout, _ := dev.Malloc(4)
		_, err = prog.Launch(dev, "probe",
			LaunchOpts{Grid: gpusim.D1(1), Block: gpusim.D1(1)},
			IntPtr(iout), Int(int(e.a)), Int(int(e.b)), Float(e.x), Float(e.y), Int(iters))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		var want int32
		for k := int32(0); k < int32(iters); k++ {
			want += ie.eval(e) + k
		}
		got, _ := dev.ReadInt32(iout, 1)
		if got[0] != want {
			t.Fatalf("trial %d: got %d want %d\n%s", trial, got[0], want, src)
		}
	}
}
