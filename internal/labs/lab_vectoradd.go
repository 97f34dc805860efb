package labs

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Vector Addition: the first CUDA kernel of the course (Table II row 2,
// and the lab shown in the paper's Figure 3 code-view screenshot).

var labVectorAdd = register(&Lab{
	ID:      "vector-add",
	Number:  2,
	Name:    "Vector Addition",
	Summary: "CUDA kernels.",
	Description: `# Vector Addition

Implement a CUDA kernel that performs element-wise addition of two input
vectors.

## Objectives

* allocate device memory and copy host memory to the device (done by the
  harness)
* write a kernel using the global thread index
* guard against out-of-bounds accesses when the vector length is not a
  multiple of the block size

## The kernel

Fill out the body of ` + "`vecAdd`" + ` in the code view. The harness launches it
with 256-thread blocks over ceil(len/256) blocks.
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `// wb.h is provided by the harness
__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  //@@ Insert code to implement vector addition here
}
`,
	Reference: `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) {
    out[i] = in1[i] + in2[i];
  }
}
`,
	Questions: []string{
		"How many floating point operations does your kernel perform per thread?",
		"Why is the boundary check `i < len` necessary?",
	},
	Courses:     []Course{CourseHPP, CourseECE408},
	NumDatasets: 5,
	Rubric:      defaultRubric("blockIdx", "threadIdx"),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		sizes := []int{16, 64, 100, 500, 1333}
		n := sizes[datasetID%len(sizes)]
		r := rng("vector-add", datasetID)
		a := make([]float32, n)
		b := make([]float32, n)
		want := make([]float32, n)
		for i := range a {
			a[i] = float32(r.Intn(200)-100) / 4
			b[i] = float32(r.Intn(200)-100) / 4
			want[i] = a[i] + b[i]
		}
		return &wb.Dataset{
			ID:   datasetID,
			Name: "vecadd",
			Inputs: []wb.File{
				{Name: "input0.raw", Data: wb.VectorBytes(a)},
				{Name: "input1.raw", Data: wb.VectorBytes(b)},
			},
			Expected: wb.File{Name: "output.raw", Data: wb.VectorBytes(want)},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("vecAdd")
		a := rc.Vector(rc.Input("input0.raw"))
		b := rc.Vector(rc.Input("input1.raw"))
		rc.Trace.Logf(wb.LevelTrace, "The input length is %d", len(a))
		aP := rc.ToDevice(a)
		bP := rc.ToDevice(b)
		outP := rc.Malloc(len(a) * 4)
		rc.Launch("vecAdd", gpusim.D1(ceilDiv(len(a), 256)), gpusim.D1(256),
			minicuda.FloatPtr(aP), minicuda.FloatPtr(bP), minicuda.FloatPtr(outP),
			minicuda.Int(len(a)))
		got := rc.ReadBack(outP, len(a))
		want := rc.Vector(rc.Dataset.Expected.Data)
		return wb.CompareFloats(got, want, wb.DefaultTolerance)
	},
})
