package kernelcheck_test

import (
	"testing"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
)

// benchKernels are the largest lab reference kernels — the worst case
// for the analyzer, since every pass walks every statement.
func benchKernels(b *testing.B) map[string]*minicuda.Program {
	b.Helper()
	progs := map[string]*minicuda.Program{}
	for _, id := range []string{"vector-add", "tiled-matmul", "reduction-scan", "convolution-2d"} {
		l := labs.ByID(id)
		if l == nil {
			b.Fatalf("no lab %q", id)
		}
		prog, err := minicuda.Compile(l.Reference, l.Dialect)
		if err != nil {
			b.Fatalf("compile %s: %v", id, err)
		}
		progs[id] = prog
	}
	return progs
}

// BenchmarkAnalyze times all five passes over pre-compiled programs —
// the marginal cost the analyzer adds to a cold compile.
func BenchmarkAnalyze(b *testing.B) {
	progs := benchKernels(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			kernelcheck.Analyze(prog)
		}
	}
}

// BenchmarkColdMiss prices the shared engine on a program none of whose
// functions it has seen: the keys it computes on top of Analyze's work.
func BenchmarkColdMiss(b *testing.B) {
	progs := benchKernels(b)
	for _, id := range []string{"tiled-matmul", "reduction-scan"} {
		prog := progs[id]
		b.Run(id+"/analyze", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernelcheck.Analyze(prog)
			}
		})
		b.Run(id+"/cold-engine", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernelcheck.NewIncremental().Analyze(prog)
			}
		})
	}
}

// BenchmarkCompile times the compile stage the analyzer rides on, for
// the same kernels, so the two numbers are directly comparable.
func BenchmarkCompile(b *testing.B) {
	var srcs []struct {
		src     string
		dialect minicuda.Dialect
	}
	for _, id := range []string{"vector-add", "tiled-matmul", "reduction-scan", "convolution-2d"} {
		l := labs.ByID(id)
		srcs = append(srcs, struct {
			src     string
			dialect minicuda.Dialect
		}{l.Reference, l.Dialect})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range srcs {
			if _, err := minicuda.Compile(s.src, s.dialect); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestAnalyzeLatencyBudget bounds the analyzer's work by counting it
// rather than timing it. A loop's body is walked by up to FixpointCap
// non-recording passes plus one recording pass, so a statement at loop
// depth d is visited at most (FixpointCap+1)^d times per analysis — the
// cost is a fixed multiple of the program's size, whatever the machine.
// A trip means a pass started re-walking what it already walked.
func TestAnalyzeLatencyBudget(t *testing.T) {
	for _, id := range []string{"tiled-matmul", "reduction-scan"} {
		l := labs.ByID(id)
		prog, err := minicuda.Compile(l.Reference, l.Dialect)
		if err != nil {
			t.Fatal(err)
		}
		depth := map[minicuda.Stmt]int{}
		for _, fn := range prog.Funcs {
			loopDepths(fn.Body, 0, depth)
		}
		visits := kernelcheck.CountWalks(prog)
		total := 0
		for s, n := range visits {
			d, ok := depth[s]
			if !ok {
				t.Fatalf("%s: the walker visited a statement outside every function body", id)
			}
			if bound := pow(kernelcheck.FixpointCap+1, d); n > bound {
				t.Errorf("%s: a statement at loop depth %d was walked %d times, bound %d", id, d, n, bound)
			}
			total += n
		}
		t.Logf("%s: %d statements, %d visits", id, len(depth), total)
	}
}

// loopDepths records every statement under s with its loop depth: the
// number of loop bodies enclosing it.
func loopDepths(s minicuda.Stmt, d int, depth map[minicuda.Stmt]int) {
	if s == nil {
		return
	}
	depth[s] = d
	switch st := s.(type) {
	case *minicuda.Block:
		for _, sub := range st.Stmts {
			loopDepths(sub, d, depth)
		}
	case *minicuda.IfStmt:
		loopDepths(st.Then, d, depth)
		loopDepths(st.Else, d, depth)
	case *minicuda.ForStmt:
		loopDepths(st.Init, d, depth)
		loopDepths(st.Body, d+1, depth)
	case *minicuda.WhileStmt:
		loopDepths(st.Body, d+1, depth)
	}
}

func pow(b, e int) int {
	n := 1
	for ; e > 0; e-- {
		n *= b
	}
	return n
}
