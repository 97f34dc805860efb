package kernelcheck

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webgpu/internal/minicuda"
)

func renderDiags(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// incUnitSrc has a helper called by the first kernel only, so edits to
// the helper must invalidate exactly {scale, kA} and edits to kB must
// invalidate exactly {kB}.
const incUnitSrc = `__device__ float scale(float *p, int i) {
  return p[i] * 2.0f;
}

__global__ void kA(float *in, float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    out[i] = scale(in, i);
  }
}

__global__ void kB(float *in, float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    out[i] = in[i] + 1.0f;
  }
}
`

func compileT(t testing.TB, src string) *minicuda.Program {
	t.Helper()
	prog, err := minicuda.Compile(src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// checkRun asserts one incremental run against a from-scratch Analyze
// of the same program and against the expected work split.
func checkRun(t *testing.T, inc *Incremental, prog *minicuda.Program, wantAnalyzed, wantReused int) {
	t.Helper()
	res := inc.Analyze(prog)
	if got, want := renderDiags(res.Diagnostics), renderDiags(Analyze(prog)); got != want {
		t.Fatalf("incremental diagnostics diverge from full run:\nincremental:\n%s\nfull:\n%s", got, want)
	}
	if res.Analyzed != wantAnalyzed || res.Reused != wantReused {
		t.Fatalf("work split: analyzed=%d reused=%d, want analyzed=%d reused=%d",
			res.Analyzed, res.Reused, wantAnalyzed, wantReused)
	}
}

func TestIncrementalInvalidation(t *testing.T) {
	inc := NewIncremental()

	// Cold start: everything analyzed.
	checkRun(t, inc, compileT(t, incUnitSrc), 3, 0)

	// Same source recompiled: everything reused.
	checkRun(t, inc, compileT(t, incUnitSrc), 0, 3)

	// Edit kB's body (same line count, so no position shifts elsewhere):
	// only kB recomputes.
	editB := strings.Replace(incUnitSrc, "in[i] + 1.0f", "in[i] + 2.0f", 1)
	checkRun(t, inc, compileT(t, editB), 1, 2)

	// Edit the helper: the helper and its caller kA recompute; kB (which
	// never calls it) is reused.
	editH := strings.Replace(editB, "p[i] * 2.0f", "p[i] * 4.0f", 1)
	checkRun(t, inc, compileT(t, editH), 2, 1)

	// Back to the previous draft: entries are keyed by content, not by
	// name, so the earlier scale/kA are still there beside the edited
	// ones and nothing recomputes.
	checkRun(t, inc, compileT(t, editB), 0, 3)

	// The whole file two lines down (a longer header): lines are keyed
	// relative to each function, so everything is spliced, moved.
	checkRun(t, inc, compileT(t, "// a\n// header\n"+editB), 0, 3)

	// A line inserted between scale and kA: kA's callee is one line
	// further away, so kA recomputes; scale and kB only moved.
	checkRun(t, inc, compileT(t, strings.Replace(editB, "}\n\n__global__ void kA", "}\n\n\n__global__ void kA", 1)), 1, 2)

	// The bound: after more distinct functions than an engine holds, it
	// holds at most MaxCachedFns, and the program analyzed last is still
	// served whole.
	const perProg = 128
	var last *minicuda.Program
	for p := 0; p*perProg <= MaxCachedFns; p++ {
		var sb strings.Builder
		for k := 0; k < perProg; k++ {
			fmt.Fprintf(&sb, "__global__ void k%d(int *out) { out[0] = %d; }\n", k, p*perProg+k)
		}
		last = compileT(t, sb.String())
		checkRun(t, inc, last, perProg, 0)
	}
	if n := inc.probation.Len() + inc.protected.Len(); n > MaxCachedFns || len(inc.funcs) != n {
		t.Fatalf("engine holds %d entries (%d keys), bound %d", n, len(inc.funcs), MaxCachedFns)
	}
	checkRun(t, inc, last, 0, perProg)

	// That stream of functions seen once went through probation: the
	// draft whose functions were hit before it is still served whole.
	checkRun(t, inc, compileT(t, editB), 0, 3)
}

// TestIncrementalMatchesFullOnCorpusMutations is the byte-identity
// fuzz: walk every corpus kernel through a chain of random single-digit
// mutations, re-analyzing each compilable step with a persistent
// incremental engine, and require the rendered diagnostics to equal a
// from-scratch run exactly. Deterministically seeded so failures
// reproduce.
func TestIncrementalMatchesFullOnCorpusMutations(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cu"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus kernels")
	}
	rng := rand.New(rand.NewSource(0x5eed))
	totalReused, partialRuns, steps := 0, 0, 0
	for _, f := range files {
		srcB, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dialect := minicuda.DialectCUDA
		if strings.Contains(string(srcB), "__kernel") {
			dialect = minicuda.DialectOpenCL
		}
		check := func(src []byte, inc *Incremental) bool {
			prog, err := minicuda.Compile(string(src), dialect)
			if err != nil {
				return false // mutation broke the program; skip the step
			}
			res := inc.Analyze(prog)
			got, want := renderDiags(res.Diagnostics), renderDiags(Analyze(prog))
			if got != want {
				t.Fatalf("%s: incremental diverges from full after mutation:\nsource:\n%s\nincremental:\n%s\nfull:\n%s",
					f, src, got, want)
			}
			totalReused += res.Reused
			if res.Analyzed < res.Total {
				partialRuns++
			}
			steps++
			return true
		}

		inc := NewIncremental()
		cur := append([]byte(nil), srcB...)
		if !check(cur, inc) {
			continue // corpus kernel itself must compile; Glob'd set does
		}
		var digits []int
		for i, b := range cur {
			if b >= '0' && b <= '9' {
				digits = append(digits, i)
			}
		}
		if len(digits) == 0 {
			continue
		}
		for round := 0; round < 20; round++ {
			mut := append([]byte(nil), cur...)
			mut[digits[rng.Intn(len(digits))]] = byte('0' + rng.Intn(10))
			if check(mut, inc) {
				cur = mut
			}
		}
	}
	if steps == 0 {
		t.Fatal("fuzz performed no steps")
	}
	if totalReused == 0 {
		t.Error("fuzz never reused a cached function result")
	}
	if partialRuns == 0 {
		t.Error("fuzz never observed a partial (analyzed < total) run")
	}
	t.Logf("fuzz: %d steps, %d with reuse, %d functions spliced from cache", steps, partialRuns, totalReused)
}

// benchSrc builds an 8-function program whose last kernel embeds tag,
// so two tags give two drafts differing in exactly one function with
// identical line numbering.
func benchSrc(tag string) string {
	var sb strings.Builder
	sb.WriteString("__device__ float scale(float *p, int i) {\n  return p[i] * 2.0f;\n}\n")
	for k := 0; k < 6; k++ {
		fmt.Fprintf(&sb, "__global__ void k%d(float *in, float *out, int n) {\n", k)
		sb.WriteString("  int i = blockIdx.x * blockDim.x + threadIdx.x;\n")
		sb.WriteString("  if (i < n) {\n    out[i] = scale(in, i);\n  }\n}\n")
	}
	fmt.Fprintf(&sb, "__global__ void draft(float *in, float *out, int n) {\n")
	sb.WriteString("  int i = blockIdx.x * blockDim.x + threadIdx.x;\n")
	fmt.Fprintf(&sb, "  if (i < n) {\n    out[i] = in[i] + %s;\n  }\n}\n", tag)
	return sb.String()
}

// BenchmarkIncrementalReanalyze measures the dev-loop steady state: a
// student edits one kernel of an 8-function file, and each re-analysis
// should splice the other 7 functions from cache. Every draft is new
// (a revert would splice all 8); drafts compile off the clock.
func BenchmarkIncrementalReanalyze(b *testing.B) {
	inc := NewIncremental()
	inc.Analyze(compileT(b, benchSrc("1.0f"))) // warm
	b.ReportAllocs()
	b.ResetTimer()
	analyzed, reused := 0, 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := compileT(b, benchSrc(fmt.Sprintf("%d.5f", i)))
		b.StartTimer()
		res := inc.Analyze(p)
		analyzed += res.Analyzed
		reused += res.Reused
	}
	b.StopTimer()
	if analyzed != b.N || reused != 7*b.N {
		b.Fatalf("analyzed %d and reused %d functions over %d drafts, want 1 and 7 a draft", analyzed, reused, b.N)
	}
}

// TestMovedCalleeSummary: a helper spliced one line further down lends
// its moved summary to a kernel that is re-analyzed (its first line is
// indented, so its key changes). The kernel's findings cite the helper's
// tokens, so they render as a fresh Analyze only if the summary's
// positions moved with the helper.
func TestMovedCalleeSummary(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "interp_*.cu"))
	if err != nil || len(files) < 5 {
		t.Fatalf("interprocedural corpus: %d files, %v", len(files), err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog := compileT(t, string(src))
		kernels := 0
		for _, fn := range prog.Funcs {
			if fn.IsKernel {
				kernels++
			}
		}
		inc := NewIncremental()
		inc.Analyze(prog)
		moved := compileT(t, "//\n"+strings.ReplaceAll(string(src), "__global__", " __global__"))
		res := inc.Analyze(moved)
		if got, want := renderDiags(res.Diagnostics), renderDiags(Analyze(moved)); got != want {
			t.Fatalf("%s: moved helpers diverge from a full run:\nincremental:\n%s\nfull:\n%s", f, got, want)
		}
		if res.Analyzed != kernels || res.Reused != len(prog.Funcs)-kernels {
			t.Errorf("%s: analyzed=%d reused=%d, want the %d kernels analyzed and the helpers reused", f, res.Analyzed, res.Reused, kernels)
		}
	}
}
