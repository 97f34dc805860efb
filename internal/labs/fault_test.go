package labs

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
)

// TestFaultsCoverErrors: every exported Err* of gpusim and minicuda, and
// labs' own ErrMissingKernel, maps to a fault code, bare and wrapped as a
// harness wraps a launch's error, or is listed here as deliberately
// unmapped with the reason. So an error sentinel a package grows is a
// decision for the hints, not an omission.
func TestFaultsCoverErrors(t *testing.T) {
	mapped := map[string]struct {
		err  error
		code string
	}{
		"gpusim.ErrIllegalAccess":     {gpusim.ErrIllegalAccess, FaultIllegalAccess},
		"gpusim.ErrBarrierDivergence": {gpusim.ErrBarrierDivergence, FaultBarrierDivergence},
		"minicuda.ErrStepLimit":       {minicuda.ErrStepLimit, FaultStepLimit},
		"minicuda.ErrDivByZero":       {minicuda.ErrDivByZero, FaultDivByZero},
		"minicuda.ErrCallDepth":       {minicuda.ErrCallDepth, FaultCallDepth},
		"minicuda.ErrConstStore":      {minicuda.ErrConstStore, FaultConstWrite},
		"labs.ErrMissingKernel":       {missingKernel{"vecAdd", nil}, FaultMissingKernel},
	}
	unmapped := map[string]struct {
		err error
		why string
	}{
		"gpusim.ErrOutOfMemory":    {gpusim.ErrOutOfMemory, "raised by the harness's own allocations, which a kernel cannot size"},
		"gpusim.ErrInvalidPtr":     {gpusim.ErrInvalidPtr, "a host-side misuse of the device API by a harness, not by the kernel"},
		"gpusim.ErrInvalidLaunch":  {gpusim.ErrInvalidLaunch, "the harness picks the launch shape; a bad one is a lab bug"},
		"gpusim.ErrBarrierStall":   {gpusim.ErrBarrierStall, "a warp engine that broke its contract: a platform bug, not a student's"},
		"minicuda.ErrBadAddress":   {minicuda.ErrBadAddress, "an access width the engine does not support: a compiler bug, not a student's"},
		"minicuda.ErrCodecVersion": {minicuda.ErrCodecVersion, "an artifact-store read; it becomes a recompile, never an outcome"},
	}
	declared := exportedErrs(t, "gpusim", "../gpusim")
	declared = append(declared, exportedErrs(t, "minicuda", "../minicuda")...)
	declared = append(declared, exportedErrs(t, "labs", ".")...)
	seen := map[string]bool{}
	for _, name := range declared {
		seen[name] = true
		m, ok := mapped[name]
		if u, listed := unmapped[name]; listed {
			if ok {
				t.Errorf("%s is both mapped and listed as unmapped (%s)", name, u.why)
			}
			if f := FaultOf(fmt.Errorf("kernel k: %w", u.err)); f != nil {
				t.Errorf("%s is listed as unmapped but FaultOf gives %+v", name, f)
			}
			continue
		}
		if !ok {
			t.Errorf("%s maps to no fault code and is not listed as unmapped", name)
			continue
		}
		for _, err := range []error{m.err, fmt.Errorf("kernel k: %w", m.err)} {
			if f := FaultOf(err); f == nil || f.Code != m.code {
				t.Errorf("FaultOf(%v) = %+v, want code %s", err, f, m.code)
			}
		}
	}
	for name := range mapped {
		if !seen[name] {
			t.Errorf("%s is mapped here but no longer declared", name)
		}
	}
	for name := range unmapped {
		if !seen[name] {
			t.Errorf("%s is listed as unmapped but no longer declared", name)
		}
	}
}

// exportedErrs lists the package-level exported Err* variables declared
// in dir's non-test files, as pkg.Name.
func exportedErrs(t *testing.T, pkg, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(id.Name, "Err") && id.IsExported() {
						names = append(names, pkg+"."+id.Name)
					}
				}
			}
		}
	}
	return names
}

// TestFaultOfRuns classifies the errors real runs raise, with the facts
// each carries: the compile error's line and name, the access's offset and
// allocation, the missing kernel's name.
func TestFaultOfRuns(t *testing.T) {
	for _, c := range []struct {
		src  string
		want Fault
	}{
		{"__global__ void vecAdd(float *a, float *b, float *c, int n) {\n  syncthreads();\n}",
			Fault{Code: FaultUndeclared, Line: 2, Name: "syncthreads"}},
		{"__global__ void vecAdd(float *a, float *b, float *c, int n) {\n  int i = (1 + 2;\n}",
			Fault{Code: FaultExpected, Line: 2, Name: ")"}},
		{"__global__ void vecAdd(float *a, float *b, float *c, int n) { int i = threadIdx; }",
			Fault{Code: FaultDim3Member, Line: 1, Name: "threadIdx"}},
		{"__global__ void vecAdd(float *a, float *b, float *c, int n) { c[blockIdx.x * blockDim.x + threadIdx.x] = 0.0f; }",
			Fault{Code: FaultOutOfBounds, Name: "global", Offset: 64, Alloc: 64}},
		{"__global__ void k(float *a, float *b, float *c, int n) { }",
			Fault{Code: FaultMissingKernel, Name: "vecAdd"}},
	} {
		o := Run(context.Background(), ByID("vector-add"), c.src, 0, NewDeviceSet(1), 0)
		if o.Fault == nil || *o.Fault != c.want {
			t.Errorf("%q: fault %+v, want %+v", c.src, o.Fault, c.want)
		}
	}
}
