package labs

import (
	"fmt"
	"slices"
	"sync"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Common harness plumbing shared by the lab drivers. Each helper mirrors a
// stretch of the libwb main() the paper's labs wrap around student code:
// import data, allocate GPU memory, copy, launch, copy back, check.

// ceilDiv is the grid-sizing helper every lab uses.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// parsedFiles holds the decoded form of a dataset's files, keyed by the
// file's blob.
type parsedFiles struct {
	mu sync.Mutex
	m  map[*byte]interface{}
}

// parsed returns parse(data) for one file of the run's dataset. The blobs
// are generated once per process and never written (Lab.Dataset), so a
// file is decoded by the first run that asks and the result kept beside
// it; the typed wrappers below hand each run its own copy, because
// harnesses write into what they load. A file read as two types, a parse
// error, or a context without a cache parses every time.
func parsed[T any](rc *RunContext, data []byte, parse func([]byte) (T, error)) (T, error) {
	if rc.files == nil || len(data) == 0 {
		return parse(data)
	}
	rc.files.mu.Lock()
	defer rc.files.mu.Unlock()
	if v, ok := rc.files.m[&data[0]].(T); ok {
		return v, nil
	}
	v, err := parse(data)
	if err == nil {
		if rc.files.m == nil {
			rc.files.m = map[*byte]interface{}{}
		}
		rc.files.m[&data[0]] = v
	}
	return v, err
}

func parseVector(rc *RunContext, data []byte) ([]float32, error) {
	v, err := parsed(rc, data, wb.ParseVector)
	return slices.Clone(v), err
}

func parseIntVector(rc *RunContext, data []byte) ([]int32, error) {
	v, err := parsed(rc, data, wb.ParseIntVector)
	return slices.Clone(v), err
}

// grid is a parsed matrix or image: elements and the two header numbers.
type grid[E any] struct {
	elems []E
	a, b  int
}

func parseMatrix(rc *RunContext, data []byte) ([]float32, int, int, error) {
	g, err := parsed(rc, data, func(d []byte) (grid[float32], error) {
		m, rows, cols, err := wb.ParseMatrix(d)
		return grid[float32]{m, rows, cols}, err
	})
	return slices.Clone(g.elems), g.a, g.b, err
}

func parseImage(rc *RunContext, data []byte) ([]byte, int, int, error) {
	g, err := parsed(rc, data, func(d []byte) (grid[byte], error) {
		pix, w, h, err := wb.ParseImage(d)
		return grid[byte]{pix, w, h}, err
	})
	return slices.Clone(g.elems), g.a, g.b, err
}

func parseCSR(rc *RunContext, data []byte) (*wb.CSR, error) {
	m, err := parsed(rc, data, wb.ParseCSR)
	if err != nil {
		return nil, err
	}
	return &wb.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: slices.Clone(m.RowPtr),
		ColIdx: slices.Clone(m.ColIdx), Vals: slices.Clone(m.Vals)}, nil
}

// loadVectorInput parses a named float-vector input of the dataset.
func loadVectorInput(rc *RunContext, name string) ([]float32, error) {
	data := rc.Dataset.Input(name)
	if data == nil {
		return nil, fmt.Errorf("labs: dataset %q missing input %s", rc.Dataset.Name, name)
	}
	return parseVector(rc, data)
}

// loadMatrixInput parses a named float-matrix input of the dataset.
func loadMatrixInput(rc *RunContext, name string) ([]float32, int, int, error) {
	data := rc.Dataset.Input(name)
	if data == nil {
		return nil, 0, 0, fmt.Errorf("labs: dataset %q missing input %s", rc.Dataset.Name, name)
	}
	return parseMatrix(rc, data)
}

// expectedVector parses the dataset's expected float-vector output.
func expectedVector(rc *RunContext) ([]float32, error) {
	return parseVector(rc, rc.Dataset.Expected.Data)
}

// toDevice allocates and fills a float buffer on the primary GPU, timing
// the copy as the labs' wbTime(Copy) does — at its simulated duration, so
// the run log is a function of the run, as the compute spans are.
func toDevice(rc *RunContext, xs []float32) (gpusim.Ptr, error) {
	rc.Trace.RecordSpan(wb.TimeCopy, "Copying input memory to the GPU", gpusim.CopyTime(4*len(xs)))
	return rc.Dev().MallocFloat32(len(xs), xs)
}

// launch runs a kernel on the primary device and records its simulated
// time under the Compute timer.
func launch(rc *RunContext, kernel string, grid, block gpusim.Dim3, args ...minicuda.Arg) error {
	stats, err := rc.Program.Launch(rc.Dev(), kernel, rc.Opts(grid, block), args...)
	if stats != nil {
		rc.Trace.RecordSpan(wb.TimeCompute, "Performing CUDA computation ("+kernel+")", stats.SimTime)
	}
	if err != nil {
		return fmt.Errorf("kernel %s: %w", kernel, err)
	}
	return nil
}

// readBack copies a float result off the device under the Copy timer,
// priced as toDevice's copy is.
func readBack(rc *RunContext, p gpusim.Ptr, n int) ([]float32, error) {
	got, err := rc.Dev().ReadFloat32(p, n)
	rc.Trace.RecordSpan(wb.TimeCopy, "Copying output memory to the CPU", gpusim.CopyTime(4*n))
	return got, err
}

// requireKernel verifies the student's program defines the kernel the
// harness will launch, producing the diagnostic the course staff's
// harnesses print.
func requireKernel(rc *RunContext, name string) error {
	if rc.Program.Kernel(name) == nil {
		return fmt.Errorf("labs: solution must define a __global__ kernel named %q (found %v)",
			name, rc.Program.Kernels())
	}
	return nil
}

// vectorMapHarness builds a harness for the common one-input-vector,
// one-output-vector shape given the kernel name and a launcher callback.
func vectorMapHarness(kernel string, run func(rc *RunContext, in gpusim.Ptr, n int, out gpusim.Ptr) error) Harness {
	return func(rc *RunContext) (wb.CheckResult, error) {
		if err := requireKernel(rc, kernel); err != nil {
			return wb.CheckResult{}, err
		}
		in, err := loadVectorInput(rc, "input0.raw")
		if err != nil {
			return wb.CheckResult{}, err
		}
		rc.Trace.Logf(wb.LevelTrace, "The input length is %d", len(in))
		inP, err := toDevice(rc, in)
		if err != nil {
			return wb.CheckResult{}, err
		}
		outP, err := rc.Dev().Malloc(len(in) * 4)
		if err != nil {
			return wb.CheckResult{}, err
		}
		if err := run(rc, inP, len(in), outP); err != nil {
			return wb.CheckResult{}, err
		}
		got, err := readBack(rc, outP, len(in))
		if err != nil {
			return wb.CheckResult{}, err
		}
		want, err := expectedVector(rc)
		if err != nil {
			return wb.CheckResult{}, err
		}
		return wb.CompareFloats(got, want, wb.DefaultTolerance), nil
	}
}
