package labs

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// SGEMM (Table II row 11): register tiling and thread coarsening on top of
// shared-memory tiling — each thread computes a 2x2 register block of C.

var labSGEMM = register(&Lab{
	ID:      "sgemm",
	Number:  11,
	Name:    "SGEMM",
	Summary: "Register tiling and thread-coarsening.",
	Description: `# SGEMM

Implement C = A x B with joint shared-memory and register tiling: each
8x8 thread block computes a 16x16 tile of C, with every thread owning a
2x2 register block (` + "`float creg[2][2]`" + `). Stage 16x16 tiles of A and B in
shared memory per iteration; each thread cooperatively loads four elements
of each tile.

Matrix dimensions are multiples of 16 in this lab so you can focus on the
tiling structure.
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `#define TILE 16
#define REG 2
__global__ void sgemm(float *A, float *B, float *C, int n) {
  __shared__ float tileA[TILE][TILE];
  __shared__ float tileB[TILE][TILE];
  float creg[REG][REG];
  //@@ register-tiled SGEMM: each thread computes a REGxREG block of C
}
`,
	Reference: `#define TILE 16
#define REG 2
__global__ void sgemm(float *A, float *B, float *C, int n) {
  __shared__ float tileA[TILE][TILE];
  __shared__ float tileB[TILE][TILE];
  float creg[REG][REG];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int rowBase = blockIdx.y * TILE + ty * REG;
  int colBase = blockIdx.x * TILE + tx * REG;
  for (int i = 0; i < REG; i++)
    for (int j = 0; j < REG; j++)
      creg[i][j] = 0.0f;
  for (int m = 0; m < n / TILE; m++) {
    for (int i = 0; i < REG; i++) {
      for (int j = 0; j < REG; j++) {
        tileA[ty * REG + i][tx * REG + j] = A[(rowBase + i) * n + m * TILE + tx * REG + j];
        tileB[ty * REG + i][tx * REG + j] = B[(m * TILE + ty * REG + i) * n + colBase + j];
      }
    }
    __syncthreads();
    for (int k = 0; k < TILE; k++) {
      float areg[REG];
      float breg[REG];
      for (int i = 0; i < REG; i++) {
        areg[i] = tileA[ty * REG + i][k];
        breg[i] = tileB[k][tx * REG + i];
      }
      for (int i = 0; i < REG; i++)
        for (int j = 0; j < REG; j++)
          creg[i][j] += areg[i] * breg[j];
    }
    __syncthreads();
  }
  for (int i = 0; i < REG; i++)
    for (int j = 0; j < REG; j++)
      C[(rowBase + i) * n + colBase + j] = creg[i][j];
}
`,
	Questions: []string{
		"How does register tiling raise the compute-to-load ratio over plain shared-memory tiling?",
		"Why does each thread load four elements of each shared tile in this configuration?",
	},
	Courses:     []Course{CourseECE598},
	NumDatasets: 3,
	Rubric:      defaultRubric("__shared__"),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		sizes := []int{16, 32, 48}
		n := sizes[datasetID%len(sizes)]
		r := rng("sgemm", datasetID)
		a := make([]float32, n*n)
		b := make([]float32, n*n)
		for i := range a {
			a[i] = float32(r.Intn(16)-8) / 4
			b[i] = float32(r.Intn(16)-8) / 4
		}
		want := make([]float32, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var acc float32
				for k := 0; k < n; k++ {
					acc += a[i*n+k] * b[k*n+j]
				}
				want[i*n+j] = acc
			}
		}
		return &wb.Dataset{
			ID:   datasetID,
			Name: "sgemm",
			Inputs: []wb.File{
				{Name: "input0.raw", Data: wb.MatrixBytes(a, n, n)},
				{Name: "input1.raw", Data: wb.MatrixBytes(b, n, n)},
			},
			Expected: wb.File{Name: "output.raw", Data: wb.MatrixBytes(want, n, n)},
		}, nil
	},
	Harness: func(rc *RunContext) (wb.CheckResult, error) {
		if err := requireKernel(rc, "sgemm"); err != nil {
			return wb.CheckResult{}, err
		}
		a, n, _, err := loadMatrixInput(rc, "input0.raw")
		if err != nil {
			return wb.CheckResult{}, err
		}
		b, _, _, err := loadMatrixInput(rc, "input1.raw")
		if err != nil {
			return wb.CheckResult{}, err
		}
		aP, err := toDevice(rc, a)
		if err != nil {
			return wb.CheckResult{}, err
		}
		bP, err := toDevice(rc, b)
		if err != nil {
			return wb.CheckResult{}, err
		}
		cP, err := rc.Dev().Malloc(n * n * 4)
		if err != nil {
			return wb.CheckResult{}, err
		}
		if err := launch(rc, "sgemm", gpusim.D2(n/16, n/16), gpusim.D2(8, 8),
			minicuda.FloatPtr(aP), minicuda.FloatPtr(bP), minicuda.FloatPtr(cP),
			minicuda.Int(n)); err != nil {
			return wb.CheckResult{}, err
		}
		got, err := readBack(rc, cP, n*n)
		if err != nil {
			return wb.CheckResult{}, err
		}
		want, _, _, err := parseMatrix(rc, rc.Dataset.Expected.Data)
		if err != nil {
			return wb.CheckResult{}, err
		}
		return wb.CompareFloats(got, want, wb.DefaultTolerance), nil
	},
})
