package labs

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// OpenCL Vector Addition (Table II row 8): the same computation as the
// CUDA vector-add lab but in the OpenCL dialect, dispatched only to worker
// containers whose image carries the OpenCL toolchain (§VI-B).

var labOpenCLVecAdd = register(&Lab{
	ID:      "opencl-vector-add",
	Number:  8,
	Name:    "OpenCL Vector Addition",
	Summary: "OpenCL",
	Description: `# OpenCL Vector Addition

Re-implement vector addition as an OpenCL kernel. Note the differences
from CUDA:

* the entry point is marked ` + "`__kernel`" + ` and buffer parameters are
  ` + "`__global`" + `
* the global index comes from ` + "`get_global_id(0)`" + `
`,
	Dialect: minicuda.DialectOpenCL,
	Skeleton: `__kernel void vadd(__global const float *a, __global const float *b,
                   __global float *result, int len) {
  //@@ Insert OpenCL vector addition here
}
`,
	Reference: `__kernel void vadd(__global const float *a, __global const float *b,
                   __global float *result, int len) {
  int id = get_global_id(0);
  if (id < len) {
    result[id] = a[id] + b[id];
  }
}
`,
	Questions: []string{
		"What is the OpenCL equivalent of a CUDA thread block?",
	},
	Courses:      []Course{CourseHPP},
	Requirements: []string{ReqOpenCL},
	NumDatasets:  3,
	Rubric:       defaultRubric("get_global_id", "__kernel"),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		sizes := []int{32, 200, 777}
		n := sizes[datasetID%len(sizes)]
		r := rng("opencl-vector-add", datasetID)
		a := make([]float32, n)
		b := make([]float32, n)
		want := make([]float32, n)
		for i := range a {
			a[i] = float32(r.Intn(100)) / 2
			b[i] = float32(r.Intn(100)) / 2
			want[i] = a[i] + b[i]
		}
		return &wb.Dataset{
			ID:   datasetID,
			Name: "oclvadd",
			Inputs: []wb.File{
				{Name: "input0.raw", Data: wb.VectorBytes(a)},
				{Name: "input1.raw", Data: wb.VectorBytes(b)},
			},
			Expected: wb.File{Name: "output.raw", Data: wb.VectorBytes(want)},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("vadd")
		a := rc.Vector(rc.Input("input0.raw"))
		b := rc.Vector(rc.Input("input1.raw"))
		aP := rc.ToDevice(a)
		bP := rc.ToDevice(b)
		outP := rc.Malloc(len(a) * 4)
		rc.Launch("vadd", gpusim.D1(ceilDiv(len(a), 64)), gpusim.D1(64),
			minicuda.FloatPtr(aP), minicuda.FloatPtr(bP), minicuda.FloatPtr(outP),
			minicuda.Int(len(a)))
		got := rc.ReadBack(outP, len(a))
		want := rc.Vector(rc.Dataset.Expected.Data)
		return wb.CompareFloats(got, want, wb.DefaultTolerance)
	},
})
