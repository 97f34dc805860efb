// Package wb is the Go equivalent of libwb, the WebGPU support library
// (https://github.com/abduld/libwb) that course lab harnesses link against.
// It provides the dataset file formats instructors ship with labs, their
// parsers and renderers, the wbTime/wbLog instrumentation students see in
// their lab output, and tolerance-based solution checking.
package wb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// File is a named dataset file (input or expected output).
type File struct {
	Name string
	Data []byte
}

// Dataset is one test dataset of a lab: instructor-provided inputs plus the
// expected output used for correctness checking (§IV-E).
type Dataset struct {
	ID       int
	Name     string
	Inputs   []File
	Expected File
}

// Input returns the named input file's bytes, or nil.
func (d *Dataset) Input(name string) []byte {
	for _, f := range d.Inputs {
		if f.Name == name {
			return f.Data
		}
	}
	return nil
}

// ---- Raw text formats --------------------------------------------------------
//
// Each format has one parser, Parse*, which returns an error for a
// malformed file, and one renderer, *Bytes, which dataset generators call.

// VectorBytes renders a float vector in the .raw format: a count line then
// one value per line.
func VectorBytes(xs []float32) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d\n", len(xs))
	for _, x := range xs {
		fmt.Fprintf(&b, "%g\n", x)
	}
	return b.Bytes()
}

// ParseVector reads a .raw float vector.
func ParseVector(data []byte) ([]float32, error) {
	sc := newScanner(data)
	n, err := sc.int()
	if err != nil {
		return nil, fmt.Errorf("wb: vector header: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("wb: negative vector length %d", n)
	}
	xs := make([]float32, n)
	for i := range xs {
		f, err := sc.float()
		if err != nil {
			return nil, fmt.Errorf("wb: vector element %d: %w", i, err)
		}
		xs[i] = f
	}
	return xs, nil
}

// MatrixBytes renders a row-major float matrix with a "rows cols" header.
// Generators are trusted code, so data that does not fill rows x cols is
// a bug, and it panics rather than render a file no harness can read.
func MatrixBytes(m []float32, rows, cols int) []byte {
	if len(m) != rows*cols {
		panic(fmt.Sprintf("wb: matrix data %d != %d x %d", len(m), rows, cols))
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d %d\n", rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", m[r*cols+c])
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// ParseMatrix reads a row-major float matrix, returning data and its
// dimensions.
func ParseMatrix(data []byte) ([]float32, int, int, error) {
	sc := newScanner(data)
	rows, err := sc.int()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wb: matrix rows: %w", err)
	}
	cols, err := sc.int()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wb: matrix cols: %w", err)
	}
	if rows < 0 || cols < 0 {
		return nil, 0, 0, fmt.Errorf("wb: negative matrix dims %dx%d", rows, cols)
	}
	m := make([]float32, rows*cols)
	for i := range m {
		f, err := sc.float()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("wb: matrix element %d: %w", i, err)
		}
		m[i] = f
	}
	return m, rows, cols, nil
}

// ImageBytes renders a grayscale 8-bit image in a PPM-like text format:
// "width height 255" then one pixel value per whitespace-separated token.
// Like MatrixBytes, it panics on pixels that do not fill width x height.
func ImageBytes(pix []byte, width, height int) []byte {
	if len(pix) != width*height {
		panic(fmt.Sprintf("wb: image data %d != %d x %d", len(pix), width, height))
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d %d 255\n", width, height)
	for i, p := range pix {
		if i > 0 {
			if i%width == 0 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		fmt.Fprintf(&b, "%d", p)
	}
	b.WriteByte('\n')
	return b.Bytes()
}

// ParseImage reads the grayscale image format.
func ParseImage(data []byte) ([]byte, int, int, error) {
	sc := newScanner(data)
	w, err := sc.int()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wb: image width: %w", err)
	}
	h, err := sc.int()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wb: image height: %w", err)
	}
	maxV, err := sc.int()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wb: image maxval: %w", err)
	}
	if maxV != 255 {
		return nil, 0, 0, fmt.Errorf("wb: unsupported image maxval %d", maxV)
	}
	pix := make([]byte, w*h)
	for i := range pix {
		v, err := sc.int()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("wb: pixel %d: %w", i, err)
		}
		if v < 0 || v > 255 {
			return nil, 0, 0, fmt.Errorf("wb: pixel %d out of range: %d", i, v)
		}
		pix[i] = byte(v)
	}
	return pix, w, h, nil
}

// IntVectorBytes renders an int32 vector (count header then values).
func IntVectorBytes(xs []int32) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d\n", len(xs))
	for _, x := range xs {
		fmt.Fprintf(&b, "%d\n", x)
	}
	return b.Bytes()
}

// ParseIntVector reads an int32 vector.
func ParseIntVector(data []byte) ([]int32, error) {
	sc := newScanner(data)
	n, err := sc.int()
	if err != nil {
		return nil, fmt.Errorf("wb: int vector header: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("wb: negative vector length %d", n)
	}
	xs := make([]int32, n)
	for i := range xs {
		v, err := sc.int()
		if err != nil {
			return nil, fmt.Errorf("wb: int element %d: %w", i, err)
		}
		xs[i] = int32(v)
	}
	return xs, nil
}

// CSR is a sparse matrix in compressed-sparse-row form, as used by the
// SPMV lab.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32 // len Rows+1
	ColIdx     []int32 // len nnz
	Vals       []float32
}

// CSRBytes renders the CSR text format: "rows cols nnz" then the three
// arrays, one per line group.
func CSRBytes(m *CSR) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d %d %d\n", m.Rows, m.Cols, len(m.Vals))
	for _, v := range m.RowPtr {
		fmt.Fprintf(&b, "%d ", v)
	}
	b.WriteByte('\n')
	for _, v := range m.ColIdx {
		fmt.Fprintf(&b, "%d ", v)
	}
	b.WriteByte('\n')
	for _, v := range m.Vals {
		fmt.Fprintf(&b, "%g ", v)
	}
	b.WriteByte('\n')
	return b.Bytes()
}

// ParseCSR reads the CSR text format.
func ParseCSR(data []byte) (*CSR, error) {
	sc := newScanner(data)
	rows, err := sc.int()
	if err != nil {
		return nil, fmt.Errorf("wb: csr rows: %w", err)
	}
	cols, err := sc.int()
	if err != nil {
		return nil, fmt.Errorf("wb: csr cols: %w", err)
	}
	nnz, err := sc.int()
	if err != nil {
		return nil, fmt.Errorf("wb: csr nnz: %w", err)
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("wb: invalid csr header %d %d %d", rows, cols, nnz)
	}
	m := &CSR{Rows: rows, Cols: cols,
		RowPtr: make([]int32, rows+1), ColIdx: make([]int32, nnz), Vals: make([]float32, nnz)}
	for i := range m.RowPtr {
		v, err := sc.int()
		if err != nil {
			return nil, fmt.Errorf("wb: csr rowptr %d: %w", i, err)
		}
		m.RowPtr[i] = int32(v)
	}
	for i := range m.ColIdx {
		v, err := sc.int()
		if err != nil {
			return nil, fmt.Errorf("wb: csr colidx %d: %w", i, err)
		}
		m.ColIdx[i] = int32(v)
	}
	for i := range m.Vals {
		v, err := sc.float()
		if err != nil {
			return nil, fmt.Errorf("wb: csr val %d: %w", i, err)
		}
		m.Vals[i] = v
	}
	return m, nil
}

// MulVec multiplies the CSR matrix by x (the SPMV oracle).
func (m *CSR) MulVec(x []float32) []float32 {
	y := make([]float32, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var acc float32
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			acc += m.Vals[i] * x[m.ColIdx[i]]
		}
		y[r] = acc
	}
	return y
}

// ---- Token scanner -------------------------------------------------------------

type scanner struct {
	sc *bufio.Scanner
}

func newScanner(data []byte) *scanner {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	sc.Split(bufio.ScanWords)
	return &scanner{sc: sc}
}

func (s *scanner) word() (string, error) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	return s.sc.Text(), nil
}

func (s *scanner) int() (int, error) {
	w, err := s.word()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(w)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", w)
	}
	return v, nil
}

func (s *scanner) float() (float32, error) {
	w, err := s.word()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(w, 32)
	if err != nil {
		return 0, fmt.Errorf("bad float %q", w)
	}
	return float32(v), nil
}

// ---- Solution checking ----------------------------------------------------------

// DefaultTolerance mirrors libwb's wbSolution threshold.
const DefaultTolerance = 1e-2

// CheckResult reports the outcome of comparing a program's output to the
// expected dataset.
type CheckResult struct {
	Correct    bool
	Total      int
	Mismatches int
	FirstBad   int    // index of the first mismatch, -1 if none
	Message    string // student-facing explanation
}

// CompareFloats checks got against want element-wise with a combined
// absolute/relative tolerance.
func CompareFloats(got, want []float32, tol float64) CheckResult {
	if len(got) != len(want) {
		return CheckResult{
			Correct:  false,
			Total:    len(want),
			FirstBad: -1,
			Message: fmt.Sprintf("The solution has %d elements but the expected output has %d.",
				len(got), len(want)),
		}
	}
	res := CheckResult{Correct: true, Total: len(want), FirstBad: -1}
	for i := range want {
		a, b := float64(got[i]), float64(want[i])
		if math.IsNaN(a) || math.Abs(a-b) > tol+tol*math.Abs(b) {
			res.Mismatches++
			if res.FirstBad < 0 {
				res.FirstBad = i
				res.Message = fmt.Sprintf(
					"The solution did not match the expected results at element %d: got %g, expected %g.",
					i, got[i], want[i])
			}
			res.Correct = false
		}
	}
	if res.Correct {
		res.Message = "Solution is correct."
	}
	return res
}

// CompareInts checks int32 outputs exactly.
func CompareInts(got, want []int32) CheckResult {
	if len(got) != len(want) {
		return CheckResult{
			Correct:  false,
			Total:    len(want),
			FirstBad: -1,
			Message: fmt.Sprintf("The solution has %d elements but the expected output has %d.",
				len(got), len(want)),
		}
	}
	res := CheckResult{Correct: true, Total: len(want), FirstBad: -1}
	for i := range want {
		if got[i] != want[i] {
			res.Mismatches++
			if res.FirstBad < 0 {
				res.FirstBad = i
				res.Message = fmt.Sprintf(
					"The solution did not match the expected results at element %d: got %d, expected %d.",
					i, got[i], want[i])
			}
			res.Correct = false
		}
	}
	if res.Correct {
		res.Message = "Solution is correct."
	}
	return res
}

// CompareBytes checks byte outputs (images) with a +-1 quantization slack,
// as image equalization results may round differently.
func CompareBytes(got, want []byte, slack int) CheckResult {
	if len(got) != len(want) {
		return CheckResult{
			Correct:  false,
			Total:    len(want),
			FirstBad: -1,
			Message: fmt.Sprintf("The solution has %d elements but the expected output has %d.",
				len(got), len(want)),
		}
	}
	res := CheckResult{Correct: true, Total: len(want), FirstBad: -1}
	for i := range want {
		d := int(got[i]) - int(want[i])
		if d < -slack || d > slack {
			res.Mismatches++
			if res.FirstBad < 0 {
				res.FirstBad = i
				res.Message = fmt.Sprintf(
					"The solution did not match the expected results at element %d: got %d, expected %d.",
					i, got[i], want[i])
			}
			res.Correct = false
		}
	}
	if res.Correct {
		res.Message = "Solution is correct."
	}
	return res
}
