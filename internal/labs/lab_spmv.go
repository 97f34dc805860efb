package labs

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// SPMV (Table II row 12): sparse matrix formats and their performance
// effects. Students implement CSR sparse matrix-vector multiply, one row
// per thread.

var labSPMV = register(&Lab{
	ID:      "spmv",
	Number:  12,
	Name:    "SPMV",
	Summary: "Sparse matrix formats and performance effects.",
	Description: `# Sparse Matrix-Vector Multiplication (CSR)

Implement y = A x for a sparse matrix A stored in compressed sparse row
(CSR) format: ` + "`rowPtr`" + ` (length rows+1), ` + "`colIdx`" + ` and ` + "`vals`" + `
(length nnz). Assign one thread per row.

Think about why CSR rows of very different lengths cause load imbalance
and control divergence — the JDS format covered in lecture addresses this.
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `__global__ void spmvCSR(int *rowPtr, int *colIdx, float *vals,
                        float *x, float *y, int numRows) {
  //@@ one thread per row
}
`,
	Reference: `__global__ void spmvCSR(int *rowPtr, int *colIdx, float *vals,
                        float *x, float *y, int numRows) {
  int row = blockIdx.x * blockDim.x + threadIdx.x;
  if (row < numRows) {
    float acc = 0.0f;
    int start = rowPtr[row];
    int end = rowPtr[row + 1];
    for (int i = start; i < end; i++) {
      acc += vals[i] * x[colIdx[i]];
    }
    y[row] = acc;
  }
}
`,
	Questions: []string{
		"Why do rows of very different lengths hurt CSR SPMV performance on a GPU?",
		"Which accesses in your kernel are uncoalesced, and what does JDS change?",
	},
	Courses:     []Course{CourseECE598, CoursePUMPS},
	NumDatasets: 4,
	Rubric:      defaultRubric(),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		sizes := []int{8, 32, 100, 250}
		n := sizes[datasetID%len(sizes)]
		r := rng("spmv", datasetID)
		m := &wb.CSR{Rows: n, Cols: n, RowPtr: make([]int32, n+1)}
		for row := 0; row < n; row++ {
			nnzRow := r.Intn(5) // 0..4 entries per row: imbalance on purpose
			used := map[int]bool{}
			for k := 0; k < nnzRow; k++ {
				c := r.Intn(n)
				if used[c] {
					continue
				}
				used[c] = true
				m.ColIdx = append(m.ColIdx, int32(c))
				m.Vals = append(m.Vals, float32(r.Intn(16)-8)/4)
			}
			m.RowPtr[row+1] = int32(len(m.Vals))
		}
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(r.Intn(16)) / 4
		}
		want := m.MulVec(x)
		return &wb.Dataset{
			ID:   datasetID,
			Name: "spmv",
			Inputs: []wb.File{
				{Name: "matrix.csr", Data: wb.CSRBytes(m)},
				{Name: "vector.raw", Data: wb.VectorBytes(x)},
			},
			Expected: wb.File{Name: "output.raw", Data: wb.VectorBytes(want)},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("spmvCSR")
		m := rc.CSR(rc.Dataset.Input("matrix.csr"))
		x := rc.Vector(rc.Input("vector.raw"))
		rc.Trace.Logf(wb.LevelTrace, "The matrix is %d x %d with %d non-zeros",
			m.Rows, m.Cols, len(m.Vals))
		rowP := rc.MallocInt32(len(m.RowPtr), m.RowPtr)
		colP := rc.MallocInt32(maxI(len(m.ColIdx), 1), m.ColIdx)
		valP := rc.MallocFloat32(maxI(len(m.Vals), 1), m.Vals)
		xP := rc.ToDevice(x)
		yP := rc.Malloc(m.Rows * 4)
		rc.Launch("spmvCSR", gpusim.D1(ceilDiv(m.Rows, 128)), gpusim.D1(128),
			minicuda.IntPtr(rowP), minicuda.IntPtr(colP), minicuda.FloatPtr(valP),
			minicuda.FloatPtr(xP), minicuda.FloatPtr(yP), minicuda.Int(m.Rows))
		got := rc.ReadBack(yP, m.Rows)
		want := rc.Vector(rc.Dataset.Expected.Data)
		return wb.CompareFloats(got, want, wb.DefaultTolerance)
	},
})

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
