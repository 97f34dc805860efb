package minicuda_test

// The structural hashes are the SHA-256 of what the MCPG encoder writes,
// so these tests tie hash and codec together: a decoded program hashes
// like the original, the hash moves with every edit incremental analysis
// must notice and with nothing else, and every node kind of ast.go goes
// through the encoder here before it can reach a student's session.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
)

type hashSource struct {
	name    string
	src     string
	dialect minicuda.Dialect
}

// editBase is the multi-function program the edit-sensitivity table
// rewrites; as part of the corpus it also supplies the node kinds the
// generated kernels never produce (bool literal, empty statement).
const editBase = `__constant__ int tab[4];
__device__ int helper(int n) { return n * 3; }
__global__ void k(int *out, float *fout, int a) {
  __shared__ int s[8];
  int tid = threadIdx.x;
  bool odd = true;
  s[tid % 8] = helper(a);
  __syncthreads();
  out[1] = a; out[2] = tid;
  int i = 0;
  while (i < 4) { out[0] += s[i] + tab[i]; i++; }
  for (;;) { if (odd) break; else continue; }
  ;
  fout[0] = (float)a * 0.5f + (a > 0 ? 1.0f : -1.0f);
}
__global__ void sibling(int *out) { out[0] = 1; }
`

// hashCorpus is the differential corpus, the lab references, the example
// kernels and editBase.
func hashCorpus(t testing.TB) []hashSource {
	t.Helper()
	corpus := []hashSource{{"editBase", editBase, minicuda.DialectCUDA}}
	for i, src := range minicuda.DiffCorpusSources() {
		corpus = append(corpus, hashSource{fmt.Sprintf("diff%04d", i), src, minicuda.DialectCUDA})
	}
	for _, l := range labs.All() {
		corpus = append(corpus, hashSource{l.ID, l.Reference, l.Dialect})
	}
	paths, err := filepath.Glob("../../examples/kernels/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example kernels found: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		dialect := minicuda.DialectCUDA
		if filepath.Ext(p) == ".cl" {
			dialect = minicuda.DialectOpenCL
		}
		corpus = append(corpus, hashSource{p, string(src), dialect})
	}
	return corpus
}

func mustCompile(t *testing.T, name, src string, dialect minicuda.Dialect) *minicuda.Program {
	t.Helper()
	prog, err := minicuda.Compile(src, dialect)
	if err != nil {
		t.Fatalf("%s: compile: %v\n%s", name, err, src)
	}
	return prog
}

// TestHashSurvivesCodecRoundTrip: for every corpus program, each function
// of DecodeProgram(EncodeProgram(p)) hashes equal to the original's and
// the prelude hashes agree.
func TestHashSurvivesCodecRoundTrip(t *testing.T) {
	for _, c := range hashCorpus(t) {
		prog := mustCompile(t, c.name, c.src, c.dialect)
		data, err := minicuda.EncodeProgram(prog)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		dec, err := minicuda.DecodeProgram(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if got, want := dec.PreludeHash(), prog.PreludeHash(); got != want {
			t.Errorf("%s: prelude hash %s after round trip, want %s", c.name, got, want)
		}
		if len(dec.Funcs) != len(prog.Funcs) {
			t.Fatalf("%s: %d functions after round trip, want %d", c.name, len(dec.Funcs), len(prog.Funcs))
		}
		for i, f := range prog.Funcs {
			if got, want := dec.Funcs[i].StructuralHash(), f.StructuralHash(); got != want {
				t.Errorf("%s: %s hashes %s after round trip, want %s", c.name, f.Name, got, want)
			}
		}
	}
}

// TestHashEditSensitivity rewrites editBase one edit at a time and checks
// which of k's structural hash and the prelude hash move.
func TestHashEditSensitivity(t *testing.T) {
	hashes := func(name, src string) (k, prelude string) {
		prog := mustCompile(t, name, src, minicuda.DialectCUDA)
		return prog.Kernel("k").StructuralHash(), prog.PreludeHash()
	}
	baseK, basePrelude := hashes("base", editBase)
	cases := []struct {
		name, old, new     string
		wantK, wantPrelude bool // the hash must change
	}{
		{name: "recompile unchanged"},
		{name: "rename a local", old: "tid", new: "lid", wantK: true},
		{name: "change a literal", old: "0.5f", new: "0.7f", wantK: true},
		{name: "change a parameter type", old: "float *fout, int a", new: "float *fout, float a", wantK: true},
		{name: "grow a shared array", old: "s[8];", new: "s[9];", wantK: true},
		{name: "swap two statements", old: "out[1] = a; out[2] = tid;", new: "out[2] = tid; out[1] = a;", wantK: true},
		{name: "while to do-while", old: "while (i < 4) { out[0] += s[i] + tab[i]; i++; }",
			new: "do { out[0] += s[i] + tab[i]; i++; } while (i < 4);", wantK: true},
		{name: "shift down one line", old: "__global__ void k(", new: "\n__global__ void k(", wantK: true},
		{name: "edit a sibling in place", old: "out[0] = 1;", new: "out[0] = 2;"},
		{name: "edit the callee in place", old: "n * 3;", new: "n * 5;"},
		{name: "grow the constant table k reads", old: "tab[4];", new: "tab[8];", wantK: true, wantPrelude: true},
	}
	for _, c := range cases {
		src := strings.ReplaceAll(editBase, c.old, c.new)
		if c.old != "" && src == editBase {
			t.Fatalf("%s: edit does not apply", c.name)
		}
		k, prelude := hashes(c.name, src)
		if changed := k != baseK; changed != c.wantK {
			t.Errorf("%s: hash of k changed = %v, want %v", c.name, changed, c.wantK)
		}
		if changed := prelude != basePrelude; changed != c.wantPrelude {
			t.Errorf("%s: prelude hash changed = %v, want %v", c.name, changed, c.wantPrelude)
		}
	}
}

// TestEveryNodeKindIsHashed: every Expr/Stmt node type declared in ast.go
// occurs in at least one hashed corpus function. A node kind added
// without encoder support therefore panics here (the encoder's default
// case), and one the corpus never produces fails here until a kernel
// that uses it is added.
func TestEveryNodeKindIsHashed(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	missing := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		if st, ok := spec.Type.(*ast.StructType); ok {
			for _, f := range st.Fields.List {
				if id, ok := f.Type.(*ast.Ident); ok && len(f.Names) == 0 && (id.Name == "exprBase" || id.Name == "stmtBase") {
					missing[spec.Name.Name] = true
				}
			}
		}
		return false
	})
	if len(missing) < 20 {
		t.Fatalf("found only %d node types in ast.go: %v", len(missing), missing)
	}
	seen := map[interface{}]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface:
			walk(v.Elem())
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Ptr:
			if v.IsNil() || v.Elem().Kind() != reflect.Struct || seen[v.Interface()] {
				return
			}
			seen[v.Interface()] = true
			delete(missing, v.Elem().Type().Name())
			for i := 0; i < v.Elem().NumField(); i++ {
				if v.Elem().Type().Field(i).PkgPath == "" { // exported: children live there
					walk(v.Elem().Field(i))
				}
			}
		}
	}
	for _, c := range hashCorpus(t) {
		prog := mustCompile(t, c.name, c.src, c.dialect)
		prog.PreludeHash()
		for _, f := range prog.Funcs {
			f.StructuralHash()
			walk(reflect.ValueOf(f))
		}
	}
	for name := range missing {
		t.Errorf("no hashed corpus function contains a %s: add a kernel that does", name)
	}
}
