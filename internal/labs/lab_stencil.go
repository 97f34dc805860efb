package labs

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Stencil (Table II row 10): register tiling and thread coarsening. Each
// thread computes a column of COARSEN output rows of a 5-point 2D stencil,
// keeping the three active input values of its column in registers as it
// marches down.

func stencilOracle(in []float32, h, w int) []float32 {
	out := make([]float32, h*w)
	at := func(y, x int) float32 {
		if y < 0 || y >= h || x < 0 || x >= w {
			return 0
		}
		return in[y*w+x]
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out[y*w+x] = 0.5*at(y, x) + 0.125*(at(y-1, x)+at(y+1, x)+at(y, x-1)+at(y, x+1))
		}
	}
	return out
}

var labStencil = register(&Lab{
	ID:      "stencil",
	Number:  10,
	Name:    "Stencil",
	Summary: "Register tiling and thread-coarsening.",
	Description: `# Stencil

Implement a 5-point 2D stencil

    out[y][x] = 0.5*in[y][x] + 0.125*(in[y-1][x] + in[y+1][x] + in[y][x-1] + in[y][x+1])

with **thread coarsening**: launch one thread per column per COARSEN=4 row
strip; each thread marches down its strip keeping the previous, current,
and next row values of its column in registers (register tiling), so each
input element of the column is loaded exactly once. Out-of-range neighbours
are zero.
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `#define COARSEN 4
__global__ void stencil2D(float *in, float *out, int height, int width) {
  //@@ one thread per (column, 4-row strip); keep the column window in registers
}
`,
	Reference: `#define COARSEN 4
__global__ void stencil2D(float *in, float *out, int height, int width) {
  int x = blockIdx.x * blockDim.x + threadIdx.x;
  int yBase = (blockIdx.y * blockDim.y + threadIdx.y) * COARSEN;
  if (x >= width) return;
  float prev = 0.0f;
  float cur = 0.0f;
  float next = 0.0f;
  if (yBase - 1 >= 0 && yBase - 1 < height) prev = in[(yBase - 1) * width + x];
  if (yBase < height) cur = in[yBase * width + x];
  for (int k = 0; k < COARSEN; k++) {
    int y = yBase + k;
    if (y >= height) return;
    if (y + 1 < height) next = in[(y + 1) * width + x];
    else next = 0.0f;
    float left = 0.0f;
    float right = 0.0f;
    if (x > 0) left = in[y * width + x - 1];
    if (x < width - 1) right = in[y * width + x + 1];
    out[y * width + x] = 0.5f * cur + 0.125f * (prev + next + left + right);
    prev = cur;
    cur = next;
  }
}
`,
	Questions: []string{
		"How does thread coarsening reduce redundant global loads in the vertical direction?",
		"What is the register cost of increasing COARSEN, and when does it hurt occupancy?",
	},
	Courses:     []Course{CourseECE598},
	NumDatasets: 3,
	Rubric:      defaultRubric(),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		shapes := [][2]int{{8, 8}, {20, 16}, {33, 29}}
		s := shapes[datasetID%len(shapes)]
		h, w := s[0], s[1]
		r := rng("stencil", datasetID)
		in := make([]float32, h*w)
		for i := range in {
			in[i] = float32(r.Intn(128)) / 8
		}
		return &wb.Dataset{
			ID:       datasetID,
			Name:     "stencil",
			Inputs:   []wb.File{{Name: "input0.raw", Data: wb.MatrixBytes(in, h, w)}},
			Expected: wb.File{Name: "output.raw", Data: wb.MatrixBytes(stencilOracle(in, h, w), h, w)},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("stencil2D")
		in, h, w := rc.Matrix(rc.Input("input0.raw"))
		inP := rc.ToDevice(in)
		outP := rc.Malloc(h * w * 4)
		const coarsen = 4
		grid := gpusim.D2(ceilDiv(w, 16), ceilDiv(ceilDiv(h, coarsen), 4))
		rc.Launch("stencil2D", grid, gpusim.D2(16, 4),
			minicuda.FloatPtr(inP), minicuda.FloatPtr(outP),
			minicuda.Int(h), minicuda.Int(w))
		got := rc.ReadBack(outP, h*w)
		want, _, _ := rc.Matrix(rc.Dataset.Expected.Data)
		return wb.CompareFloats(got, want, wb.DefaultTolerance)
	},
})
