package labs

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Scatter to Gather (Table II row 9): transformation between scatter and
// gather. Students are given the scatter formulation of a force-spreading
// operation (each input i adds w0*in[i] to out[i-1], w1*in[i] to out[i],
// w2*in[i] to out[i+1]) and must write the gather version, where each
// output element pulls its three contributions — no atomics needed.

var labScatterToGather = register(&Lab{
	ID:      "scatter-to-gather",
	Number:  9,
	Name:    "Scatter to Gather",
	Summary: "Transformation between scatter and gather.",
	Description: `# Scatter to Gather

The sequential code spreads each input element into three output cells:

    out[i-1] += 0.25 * in[i];
    out[i]   += 0.50 * in[i];
    out[i+1] += 0.25 * in[i];

A direct CUDA port (one thread per *input*) needs atomics because several
threads write each output cell. Transform it into a **gather** kernel: one
thread per *output* element that reads the (up to three) inputs that
contribute to it. Boundary cells receive no contribution from outside the
array.
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `__global__ void gatherKernel(float *in, float *out, int len) {
  //@@ one thread per OUTPUT element; pull contributions, no atomics
}
`,
	Reference: `__global__ void gatherKernel(float *in, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) {
    float acc = 0.50f * in[i];
    if (i > 0) acc += 0.25f * in[i - 1];
    if (i < len - 1) acc += 0.25f * in[i + 1];
    out[i] = acc;
  }
}
`,
	Questions: []string{
		"Why does the gather formulation avoid atomic operations?",
		"When can a scatter pattern NOT be converted to a gather pattern cheaply?",
	},
	Courses:     []Course{CourseECE598, CoursePUMPS},
	NumDatasets: 4,
	Rubric:      defaultRubric(),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		sizes := []int{16, 100, 511, 1024}
		n := sizes[datasetID%len(sizes)]
		r := rng("scatter-to-gather", datasetID)
		in := make([]float32, n)
		for i := range in {
			in[i] = float32(r.Intn(64)) / 4
		}
		want := make([]float32, n)
		for i := 0; i < n; i++ { // scatter oracle
			if i > 0 {
				want[i-1] += 0.25 * in[i]
			}
			want[i] += 0.50 * in[i]
			if i < n-1 {
				want[i+1] += 0.25 * in[i]
			}
		}
		return &wb.Dataset{
			ID:       datasetID,
			Name:     "gather",
			Inputs:   []wb.File{{Name: "input0.raw", Data: wb.VectorBytes(in)}},
			Expected: wb.File{Name: "output.raw", Data: wb.VectorBytes(want)},
		}, nil
	},
	Harness: vectorMapHarness("gatherKernel", func(rc *RunContext, in gpusim.Ptr, n int, out gpusim.Ptr) {
		rc.Launch("gatherKernel", gpusim.D1(ceilDiv(n, 128)), gpusim.D1(128),
			minicuda.FloatPtr(in), minicuda.FloatPtr(out), minicuda.Int(n))
	}),
})
