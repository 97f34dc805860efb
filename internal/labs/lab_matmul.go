package labs

import (
	"fmt"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Basic and Tiled Matrix Multiplication (Table II rows 3-4): the basic
// version teaches 2D indexing and boundary checks; the tiled version
// introduces shared-memory tiling.

func genMatMulDataset(labID string, datasetID int) (*wb.Dataset, error) {
	shapes := [][3]int{{4, 4, 4}, {8, 12, 8}, {16, 16, 16}, {19, 13, 17}, {32, 24, 40}}
	s := shapes[datasetID%len(shapes)]
	ra, ca, cb := s[0], s[1], s[2]
	r := rng(labID, datasetID)
	a := make([]float32, ra*ca)
	b := make([]float32, ca*cb)
	for i := range a {
		a[i] = float32(r.Intn(40)-20) / 8
	}
	for i := range b {
		b[i] = float32(r.Intn(40)-20) / 8
	}
	want := make([]float32, ra*cb)
	for i := 0; i < ra; i++ {
		for j := 0; j < cb; j++ {
			var acc float32
			for k := 0; k < ca; k++ {
				acc += a[i*ca+k] * b[k*cb+j]
			}
			want[i*cb+j] = acc
		}
	}
	return &wb.Dataset{
		ID:   datasetID,
		Name: "matmul",
		Inputs: []wb.File{
			{Name: "input0.raw", Data: wb.MatrixBytes(a, ra, ca)},
			{Name: "input1.raw", Data: wb.MatrixBytes(b, ca, cb)},
		},
		Expected: wb.File{Name: "output.raw", Data: wb.MatrixBytes(want, ra, cb)},
	}, nil
}

func matMulHarness(kernel string, block int) Harness {
	return func(rc *RunContext) (wb.CheckResult, error) {
		if err := requireKernel(rc, kernel); err != nil {
			return wb.CheckResult{}, err
		}
		a, ra, ca, err := loadMatrixInput(rc, "input0.raw")
		if err != nil {
			return wb.CheckResult{}, err
		}
		b, rb, cb, err := loadMatrixInput(rc, "input1.raw")
		if err != nil {
			return wb.CheckResult{}, err
		}
		if ca != rb {
			return wb.CheckResult{}, errDims(ca, rb)
		}
		rc.Trace.Logf(wb.LevelTrace, "The dimensions of A are %d x %d", ra, ca)
		rc.Trace.Logf(wb.LevelTrace, "The dimensions of B are %d x %d", rb, cb)
		aP, err := toDevice(rc, a)
		if err != nil {
			return wb.CheckResult{}, err
		}
		bP, err := toDevice(rc, b)
		if err != nil {
			return wb.CheckResult{}, err
		}
		cP, err := rc.Dev().Malloc(ra * cb * 4)
		if err != nil {
			return wb.CheckResult{}, err
		}
		grid := gpusim.D2(ceilDiv(cb, block), ceilDiv(ra, block))
		if err := launch(rc, kernel, grid, gpusim.D2(block, block),
			minicuda.FloatPtr(aP), minicuda.FloatPtr(bP), minicuda.FloatPtr(cP),
			minicuda.Int(ra), minicuda.Int(ca), minicuda.Int(cb)); err != nil {
			return wb.CheckResult{}, err
		}
		got, err := readBack(rc, cP, ra*cb)
		if err != nil {
			return wb.CheckResult{}, err
		}
		want, _, _, err := parseMatrix(rc, rc.Dataset.Expected.Data)
		if err != nil {
			return wb.CheckResult{}, err
		}
		return wb.CompareFloats(got, want, wb.DefaultTolerance), nil
	}
}

func errDims(a, b int) error {
	return fmt.Errorf("labs: inner matrix dimensions disagree: %d vs %d", a, b)
}

var labBasicMatMul = register(&Lab{
	ID:      "basic-matmul",
	Number:  3,
	Name:    "Basic Matrix Multiplication",
	Summary: "Boundary checking and indexing.",
	Description: `# Basic Matrix Multiplication

Implement a dense matrix multiplication C = A x B where each thread
computes one element of C.

The matrices are not necessarily square and their dimensions are not
necessarily multiples of the block size, so boundary checks are required.
The harness launches ` + "`matrixMultiply`" + ` with 16x16 blocks.
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `__global__ void matrixMultiply(float *A, float *B, float *C,
                               int numARows, int numACols, int numBCols) {
  //@@ Insert code to implement basic matrix multiplication here
}
`,
	Reference: `__global__ void matrixMultiply(float *A, float *B, float *C,
                               int numARows, int numACols, int numBCols) {
  int row = blockIdx.y * blockDim.y + threadIdx.y;
  int col = blockIdx.x * blockDim.x + threadIdx.x;
  if (row < numARows && col < numBCols) {
    float acc = 0.0f;
    for (int k = 0; k < numACols; k++) {
      acc += A[row * numACols + k] * B[k * numBCols + col];
    }
    C[row * numBCols + col] = acc;
  }
}
`,
	Questions: []string{
		"How many global memory reads does each thread perform?",
		"What limits the performance of this kernel: compute or memory bandwidth?",
	},
	Courses:     []Course{CourseHPP, CourseECE408},
	NumDatasets: 5,
	Rubric:      defaultRubric("blockIdx", "blockDim"),
	Generate: func(id int) (*wb.Dataset, error) {
		return genMatMulDataset("basic-matmul", id)
	},
	Harness: matMulHarness("matrixMultiply", 16),
})

var labTiledMatMul = register(&Lab{
	ID:      "tiled-matmul",
	Number:  4,
	Name:    "Tiled Matrix Multiplication",
	Summary: "Introduce shared memory tiling.",
	Description: `# Tiled Matrix Multiplication

Re-implement matrix multiplication using shared-memory tiling with
TILE_WIDTH = 16. Each block cooperatively stages a tile of A and a tile of
B into ` + "`__shared__`" + ` arrays, synchronizes, and accumulates partial dot
products from the tiles.

Remember:

* every thread in the block must reach the ` + "`__syncthreads()`" + ` calls —
  keep them outside divergent branches
* pad out-of-range tile elements with zero
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `#define TILE_WIDTH 16
__global__ void matrixMultiplyShared(float *A, float *B, float *C,
                                     int numARows, int numACols, int numBCols) {
  __shared__ float tileA[TILE_WIDTH][TILE_WIDTH];
  __shared__ float tileB[TILE_WIDTH][TILE_WIDTH];
  //@@ Insert code to implement tiled matrix multiplication here
}
`,
	Reference: `#define TILE_WIDTH 16
__global__ void matrixMultiplyShared(float *A, float *B, float *C,
                                     int numARows, int numACols, int numBCols) {
  __shared__ float tileA[TILE_WIDTH][TILE_WIDTH];
  __shared__ float tileB[TILE_WIDTH][TILE_WIDTH];
  int row = blockIdx.y * TILE_WIDTH + threadIdx.y;
  int col = blockIdx.x * TILE_WIDTH + threadIdx.x;
  float acc = 0.0f;
  int tiles = (numACols + TILE_WIDTH - 1) / TILE_WIDTH;
  for (int m = 0; m < tiles; m++) {
    if (row < numARows && m * TILE_WIDTH + threadIdx.x < numACols)
      tileA[threadIdx.y][threadIdx.x] = A[row * numACols + m * TILE_WIDTH + threadIdx.x];
    else
      tileA[threadIdx.y][threadIdx.x] = 0.0f;
    if (col < numBCols && m * TILE_WIDTH + threadIdx.y < numACols)
      tileB[threadIdx.y][threadIdx.x] = B[(m * TILE_WIDTH + threadIdx.y) * numBCols + col];
    else
      tileB[threadIdx.y][threadIdx.x] = 0.0f;
    __syncthreads();
    for (int k = 0; k < TILE_WIDTH; k++)
      acc += tileA[threadIdx.y][k] * tileB[k][threadIdx.x];
    __syncthreads();
  }
  if (row < numARows && col < numBCols)
    C[row * numBCols + col] = acc;
}
`,
	Questions: []string{
		"By what factor does tiling reduce global memory traffic compared to the basic kernel?",
		"What goes wrong if __syncthreads() is placed inside the boundary if-statement?",
	},
	Courses:     []Course{CourseHPP, CourseECE408},
	NumDatasets: 5,
	Rubric:      defaultRubric("__shared__", "__syncthreads"),
	Generate: func(id int) (*wb.Dataset, error) {
		return genMatMulDataset("tiled-matmul", id)
	},
	Harness: matMulHarness("matrixMultiplyShared", 16),
})
