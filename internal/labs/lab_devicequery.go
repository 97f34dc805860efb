package labs

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Device Query: the demo lab that introduces WebGPU to students (Table II
// row 1). The "computation" is reading back the device properties; its
// real purpose is walking students through the edit/compile/run/submit
// loop.

var labDeviceQuery = register(&Lab{
	ID:      "device-query",
	Number:  1,
	Name:    "Device Query",
	Summary: "Demo Lab to introduce WebGPU to students.",
	Description: `# Device Query

The purpose of this lab is to introduce you to the WebGPU submission
system. You will query the properties of the GPU your code runs on and
report them.

## Instructions

Edit the kernel in the code view so that every entry of the output vector
is set to the device ordinal (already done in the skeleton), compile, run
against the provided dataset, and submit. The harness prints the device
properties for you; study the output — later labs will ask you to reason
about shared memory sizes and block limits.
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `// Device Query — run me as-is, then read the output.
__global__ void deviceQuery(int *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) {
    out[i] = 0; // the device ordinal this lab runs on
  }
}
`,
	Reference: `__global__ void deviceQuery(int *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) {
    out[i] = 0;
  }
}
`,
	Questions: []string{
		"What is the compute capability of the device you queried?",
		"How much shared memory is available per block, and why does it matter?",
	},
	Courses:     []Course{CourseHPP, CourseECE408, CoursePUMPS},
	NumDatasets: 1,
	Rubric: Rubric{
		CompilePoints:  40,
		DatasetPoints:  40,
		QuestionPoints: 10,
	},
	Generate: func(datasetID int) (*wb.Dataset, error) {
		n := 16
		want := make([]int32, n) // device ordinal 0 everywhere
		return &wb.Dataset{
			ID:       datasetID,
			Name:     "query0",
			Inputs:   []wb.File{{Name: "input0.raw", Data: wb.IntVectorBytes(make([]int32, n))}},
			Expected: wb.File{Name: "output.raw", Data: wb.IntVectorBytes(want)},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("deviceQuery")
		n := len(rc.IntVector(rc.Input("input0.raw")))
		rc.Trace.Logf(wb.LevelTrace, "Querying device 0")
		rc.Trace.Logf(wb.LevelInfo, "%s", rc.Dev().QueryString())
		outP := rc.MallocInt32(n, nil)
		rc.Launch("deviceQuery", gpusim.D1(ceilDiv(n, 64)), gpusim.D1(64),
			minicuda.IntPtr(outP), minicuda.Int(n))
		got := rc.ReadInt32(outP, n)
		want := rc.IntVector(rc.Dataset.Expected.Data)
		return wb.CompareInts(got, want)
	},
})
