package labs

import (
	"fmt"
	"slices"
	"sync"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// The host API a harness is written in. Each method mirrors a stretch of
// the libwb main() the paper's labs wrap around student code: import
// data, allocate GPU memory, copy, launch, copy back. A step that fails
// ends the run, as libwb's wbCheck ends a lab's main: the method panics
// with a hostFailure, which RunCompiled alone recovers and reports as the
// outcome's runtime error. So a harness is straight-line code that never
// checks an error. It must call the methods on its own goroutine, the one
// RunCompiled recovers on.

// hostFailure is the panic value of a failed host step.
type hostFailure struct{ err error }

// Fail ends the run with err as its runtime error; a harness calls it for
// its own checks of what it read (dimensions, sizes).
func (rc *RunContext) Fail(err error) { panic(hostFailure{err}) }

// check ends the run when a host step failed.
func check(err error) {
	if err != nil {
		panic(hostFailure{err})
	}
}

// must is check for a step that also returns a value.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// runHarness runs a harness to its verdict or to its first failed host
// step. Any other panic is the harness's own bug and propagates.
func runHarness(h Harness, rc *RunContext) (res wb.CheckResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(hostFailure)
			if !ok {
				panic(r)
			}
			err = f.err
		}
	}()
	return h(rc), nil
}

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
// it; the typed methods below hand each run its own copy, because
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

// Input returns the dataset's named input file, ending the run when the
// dataset has none.
func (rc *RunContext) Input(name string) []byte {
	data := rc.Dataset.Input(name)
	if data == nil {
		rc.Fail(fmt.Errorf("labs: dataset %q missing input %s", rc.Dataset.Name, name))
	}
	return data
}

// Vector parses a float vector file.
func (rc *RunContext) Vector(data []byte) []float32 {
	return slices.Clone(must(parsed(rc, data, wb.ParseVector)))
}

// IntVector parses an int vector file.
func (rc *RunContext) IntVector(data []byte) []int32 {
	return slices.Clone(must(parsed(rc, data, wb.ParseIntVector)))
}

// grid is a parsed matrix or image: elements and the two header numbers.
type grid[E any] struct {
	elems []E
	a, b  int
}

// Matrix parses a matrix file into its elements, rows and columns.
func (rc *RunContext) Matrix(data []byte) ([]float32, int, int) {
	g := must(parsed(rc, data, func(d []byte) (grid[float32], error) {
		m, rows, cols, err := wb.ParseMatrix(d)
		return grid[float32]{m, rows, cols}, err
	}))
	return slices.Clone(g.elems), g.a, g.b
}

// Image parses an image file into its pixels, width and height.
func (rc *RunContext) Image(data []byte) ([]byte, int, int) {
	g := must(parsed(rc, data, func(d []byte) (grid[byte], error) {
		pix, w, h, err := wb.ParseImage(d)
		return grid[byte]{pix, w, h}, err
	}))
	return slices.Clone(g.elems), g.a, g.b
}

// CSR parses a sparse matrix file.
func (rc *RunContext) CSR(data []byte) *wb.CSR {
	m := must(parsed(rc, data, wb.ParseCSR))
	return &wb.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: slices.Clone(m.RowPtr),
		ColIdx: slices.Clone(m.ColIdx), Vals: slices.Clone(m.Vals)}
}

// RequireKernel checks that the student's program defines each named
// kernel, in order, failing with the diagnostic the course staff's
// harnesses print.
func (rc *RunContext) RequireKernel(names ...string) {
	for _, name := range names {
		if rc.Program.Kernel(name) == nil {
			rc.Fail(missingKernel{name, rc.Program.Kernels()})
		}
	}
}

// ToDevice allocates and fills a float buffer on the primary GPU, timing
// the copy as the labs' wbTime(Copy) does — at its simulated duration, so
// the run log is a function of the run, as the compute spans are.
func (rc *RunContext) ToDevice(xs []float32) gpusim.Ptr {
	rc.Trace.RecordSpan(wb.TimeCopy, "Copying input memory to the GPU", gpusim.CopyTime(4*len(xs)))
	return rc.MallocFloat32(len(xs), xs)
}

// Launch runs a kernel on the primary GPU and records its simulated time
// under the Compute timer, whether or not it completes.
func (rc *RunContext) Launch(kernel string, grid, block gpusim.Dim3, args ...minicuda.Arg) {
	stats, err := rc.Program.Launch(rc.Dev(), kernel, rc.Opts(grid, block), args...)
	if stats != nil {
		rc.Trace.RecordSpan(wb.TimeCompute, "Performing CUDA computation ("+kernel+")", stats.SimTime)
	}
	if err != nil {
		rc.Fail(fmt.Errorf("kernel %s: %w", kernel, err))
	}
}

// ReadBack copies a float result off the primary GPU under the Copy
// timer, priced as ToDevice's copy is.
func (rc *RunContext) ReadBack(p gpusim.Ptr, n int) []float32 {
	got, err := rc.Dev().ReadFloat32(p, n)
	rc.Trace.RecordSpan(wb.TimeCopy, "Copying output memory to the CPU", gpusim.CopyTime(4*n))
	return must(got, err)
}

// The primary GPU's memory calls, unlogged: scratch buffers and the
// intermediate values a harness reads between launches.

// Malloc allocates size bytes.
func (rc *RunContext) Malloc(size int) gpusim.Ptr {
	return must(rc.Dev().Malloc(size))
}

// MallocFloat32 allocates n floats and copies src (which may be shorter)
// into them.
func (rc *RunContext) MallocFloat32(n int, src []float32) gpusim.Ptr {
	return must(rc.Dev().MallocFloat32(n, src))
}

// MallocInt32 allocates n ints and copies src (which may be shorter) into
// them.
func (rc *RunContext) MallocInt32(n int, src []int32) gpusim.Ptr {
	return must(rc.Dev().MallocInt32(n, src))
}

// Memset fills n bytes at p with b.
func (rc *RunContext) Memset(p gpusim.Ptr, b byte, n int) { check(rc.Dev().Memset(p, b, n)) }

// MemcpyHtoD copies host bytes to p.
func (rc *RunContext) MemcpyHtoD(p gpusim.Ptr, src []byte) { check(rc.Dev().MemcpyHtoD(p, src)) }

// MemcpyDtoH copies len(dst) bytes at p to the host.
func (rc *RunContext) MemcpyDtoH(dst []byte, p gpusim.Ptr) { check(rc.Dev().MemcpyDtoH(dst, p)) }

// ReadFloat32 reads n floats at p.
func (rc *RunContext) ReadFloat32(p gpusim.Ptr, n int) []float32 {
	return must(rc.Dev().ReadFloat32(p, n))
}

// ReadInt32 reads n ints at p.
func (rc *RunContext) ReadInt32(p gpusim.Ptr, n int) []int32 {
	return must(rc.Dev().ReadInt32(p, n))
}

// LoadConstant fills the program's __constant__ variable name on the
// primary GPU.
func (rc *RunContext) LoadConstant(name string, data []byte) {
	check(rc.Program.LoadConstant(rc.Dev(), name, data))
}

// vectorMapHarness builds a harness for the common one-input-vector,
// one-output-vector shape given the kernel name and a launcher callback.
func vectorMapHarness(kernel string, run func(rc *RunContext, in gpusim.Ptr, n int, out gpusim.Ptr)) Harness {
	return func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel(kernel)
		in := rc.Vector(rc.Input("input0.raw"))
		rc.Trace.Logf(wb.LevelTrace, "The input length is %d", len(in))
		inP := rc.ToDevice(in)
		outP := rc.Malloc(len(in) * 4)
		run(rc, inP, len(in), outP)
		got := rc.ReadBack(outP, len(in))
		want := rc.Vector(rc.Dataset.Expected.Data)
		return wb.CompareFloats(got, want, wb.DefaultTolerance)
	}
}
