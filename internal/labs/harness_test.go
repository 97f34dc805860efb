package labs

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// TestHarnessFailurePaths: a failed host step ends the harness with the
// step's own message, and nothing after it runs. Three failures per lab:
// the program lacks the kernel the harness looks for first (no launch, no
// log line), the dataset lacks its first input (no launch), and the
// reference runs out of steps on its first launch (no later launch, no
// output copied back). Only texts and counts are compared: the aborted
// launch's counters depend on where each block stood when the budget ran
// out.
func TestHarnessFailurePaths(t *testing.T) {
	// These harnesses hand a file's bytes straight to the parser, so a
	// file that is missing reads as an empty one.
	emptyFile := map[string]string{
		"device-query":       "wb: int vector header: unexpected EOF",
		"image-equalization": "wb: image width: unexpected EOF",
		"spmv":               "wb: csr rows: unexpected EOF",
		"bfs-queuing":        "wb: int vector header: unexpected EOF",
	}
	missingKernel := regexp.MustCompile(`^labs: solution must define a __global__ kernel named "(\w+)" \(found \[probe\]\)$`)
	for _, l := range All() {
		ref, err := minicuda.Compile(l.Reference, l.Dialect)
		if err != nil {
			t.Fatalf("%s: %v", l.ID, err)
		}
		gpus := maxI(l.NumGPUs, 1)

		t.Run(l.ID+"/missing-kernel", func(t *testing.T) {
			qual := "__global__"
			if l.Dialect == minicuda.DialectOpenCL {
				qual = "__kernel"
			}
			probe, err := minicuda.Compile(qual+" void probe(int n) {\n}\n", l.Dialect)
			if err != nil {
				t.Fatal(err)
			}
			o := RunCompiled(context.Background(), l, probe, 0, NewDeviceSet(gpus), 0)
			m := missingKernel.FindStringSubmatch(o.RuntimeError)
			if m == nil || ref.Kernel(m[1]) == nil {
				t.Fatalf("error = %q, want the missing-kernel message naming one of the reference's kernels", o.RuntimeError)
			}
			if o.Ran || len(o.Kernels) != 0 || o.Trace != "" {
				t.Errorf("harness went on after the check: ran=%v, %d launches, log %q", o.Ran, len(o.Kernels), o.Trace)
			}
		})

		t.Run(l.ID+"/missing-input", func(t *testing.T) {
			ds, err := l.Dataset(0)
			if err != nil {
				t.Fatal(err)
			}
			trimmed := *ds
			trimmed.Inputs = ds.Inputs[1:]
			probe := &Lab{ID: l.ID, NumDatasets: 1, NumGPUs: l.NumGPUs, Harness: l.Harness,
				Generate: func(int) (*wb.Dataset, error) { return &trimmed, nil }}
			o := RunCompiled(context.Background(), probe, ref, 0, NewDeviceSet(gpus), 0)
			want, ok := emptyFile[l.ID]
			if !ok {
				want = fmt.Sprintf("labs: dataset %q missing input %s", ds.Name, ds.Inputs[0].Name)
			}
			if o.RuntimeError != want {
				t.Fatalf("error = %q, want %q", o.RuntimeError, want)
			}
			if o.Ran || len(o.Kernels) != 0 {
				t.Errorf("harness went on after the missing input: ran=%v, %d launches", o.Ran, len(o.Kernels))
			}
		})

		t.Run(l.ID+"/step-limit", func(t *testing.T) {
			o := RunCompiled(context.Background(), l, ref, 0, NewDeviceSet(gpus), 1)
			if !strings.HasSuffix(o.RuntimeError, minicuda.ErrStepLimit.Error()) {
				t.Fatalf("error = %q, want the step limit", o.RuntimeError)
			}
			// One launch per GPU: mpi-stencil's ranks each reach their
			// first launch before any of them fails.
			if o.Ran || len(o.Kernels) != gpus {
				t.Fatalf("ran=%v with %d launches, want only the first launch on each of %d GPUs", o.Ran, len(o.Kernels), gpus)
			}
			if gpus == 1 {
				if want := "kernel " + o.Kernels[0].Name + ": " + minicuda.ErrStepLimit.Error(); o.RuntimeError != want {
					t.Errorf("error = %q, want %q", o.RuntimeError, want)
				}
			}
			if strings.Contains(o.Trace, "Copying output memory") {
				t.Errorf("output copied back after the failed launch:\n%s", o.Trace)
			}
		})
	}
}

// TestHarnessPanicsPropagate: RunCompiled turns a failed host step into
// the outcome's runtime error and nothing else; a harness's own panic is
// a bug and reaches the caller, as it did before harnesses failed by
// panicking.
func TestHarnessPanicsPropagate(t *testing.T) {
	vecAdd := ByID("vector-add")
	prog, err := minicuda.Compile(vecAdd.Reference, vecAdd.Dialect)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(h Harness) *Lab {
		return &Lab{ID: "panic-probe", NumDatasets: 1, Harness: h,
			Generate: func(int) (*wb.Dataset, error) { return &wb.Dataset{Name: "probe"}, nil }}
	}
	o := RunCompiled(context.Background(), probe(func(rc *RunContext) wb.CheckResult {
		rc.Fail(fmt.Errorf("labs: probe check"))
		return wb.CheckResult{Correct: true}
	}), prog, 0, NewDeviceSet(1), 0)
	if o.RuntimeError != "labs: probe check" || o.Ran || o.Correct {
		t.Errorf("Fail: %+v", o)
	}
	defer func() {
		if r := recover(); r != "harness bug" {
			t.Errorf("recovered %v, want the harness's own panic", r)
		}
	}()
	RunCompiled(context.Background(), probe(func(rc *RunContext) wb.CheckResult {
		panic("harness bug")
	}), prog, 0, NewDeviceSet(1), 0)
	t.Error("a harness's own panic was swallowed")
}
