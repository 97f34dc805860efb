// Lab authoring: an instructor defines a brand-new lab — description
// (markdown), solution skeleton, reference solution, dataset generators,
// rubric (§IV-E) — registers it in the catalog, and verifies it the way
// the course staff did before each offering: the skeleton must compile,
// the reference must pass every dataset, and a deliberately wrong
// solution must fail.
package main

import (
	"context"
	"fmt"
	"log"

	"webgpu/internal/gpusim"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

func main() {
	saxpy := &labs.Lab{
		ID:      "saxpy",
		Number:  100,
		Name:    "SAXPY",
		Summary: "Single-precision a*X plus Y.",
		Description: `# SAXPY

Implement the BLAS level-1 operation

    y[i] = a * x[i] + y[i]

as a CUDA kernel. The scalar a is passed as a kernel argument.
`,
		Dialect: minicuda.DialectCUDA,
		Skeleton: `__global__ void saxpy(float a, float *x, float *y, int n) {
  //@@ y[i] = a * x[i] + y[i]
}
`,
		Reference: `__global__ void saxpy(float a, float *x, float *y, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    y[i] = a * x[i] + y[i];
  }
}
`,
		Questions:   []string{"Why is SAXPY memory-bound on every GPU generation?"},
		Courses:     []labs.Course{labs.CourseECE408},
		NumDatasets: 3,
		Rubric: labs.Rubric{
			CompilePoints: 10, DatasetPoints: 25, QuestionPoints: 15,
		},
		Generate: func(id int) (*wb.Dataset, error) {
			sizes := []int{16, 300, 1024}
			n := sizes[id%len(sizes)]
			a := float32(2.5)
			x := make([]float32, n)
			y := make([]float32, n)
			want := make([]float32, n)
			for i := range x {
				x[i] = float32(i % 17)
				y[i] = float32(i % 5)
				want[i] = a*x[i] + y[i]
			}
			return &wb.Dataset{
				ID:   id,
				Name: "saxpy",
				Inputs: []wb.File{
					{Name: "a.raw", Data: wb.VectorBytes([]float32{a})},
					{Name: "x.raw", Data: wb.VectorBytes(x)},
					{Name: "y.raw", Data: wb.VectorBytes(y)},
				},
				Expected: wb.File{Name: "output.raw", Data: wb.VectorBytes(want)},
			}, nil
		},
		// The host program, as a libwb lab's main() is: every RunContext
		// call logs its step, and the first one to fail ends the run.
		Harness: func(rc *labs.RunContext) wb.CheckResult {
			a := rc.Vector(rc.Input("a.raw"))[0]
			x := rc.Vector(rc.Input("x.raw"))
			y := rc.Vector(rc.Input("y.raw"))
			n := len(x)
			xP := rc.ToDevice(x)
			yP := rc.ToDevice(y)
			rc.Launch("saxpy", gpusim.D1((n+127)/128), gpusim.D1(128),
				minicuda.Float(a), minicuda.FloatPtr(xP), minicuda.FloatPtr(yP), minicuda.Int(n))
			got := rc.ReadBack(yP, n)
			want := rc.Vector(rc.Dataset.Expected.Data)
			return wb.CompareFloats(got, want, wb.DefaultTolerance)
		},
	}

	// Register: this runs the same validation the deployment scripts did.
	if err := labs.Register(saxpy); err != nil {
		log.Fatalf("lab rejected: %v", err)
	}
	fmt.Printf("lab %q registered; max points = %d\n\n", saxpy.ID, saxpy.MaxPoints())

	devices := labs.NewDeviceSet(1)

	fmt.Println("verifying the reference solution against every dataset:")
	for ds := 0; ds < saxpy.NumDatasets; ds++ {
		o := labs.Run(context.Background(), saxpy, saxpy.Reference, ds, devices, 0)
		fmt.Printf("  dataset %d: correct=%v (%s)\n", ds, o.Correct, o.CheckMessage)
		if !o.Correct {
			log.Fatal("reference must pass")
		}
	}

	fmt.Println("\na student's buggy attempt (missing the y term):")
	buggy := `__global__ void saxpy(float a, float *x, float *y, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) y[i] = a * x[i];
}`
	o := labs.Run(context.Background(), saxpy, buggy, 0, devices, 0)
	fmt.Printf("  dataset 0: correct=%v — %s\n", o.Correct, o.CheckMessage)
	fmt.Printf("  its run log:\n%s", o.Trace)

	fmt.Println("\nthe lab is now in the catalog alongside the Table II labs:")
	for _, l := range labs.ForCourse(labs.CourseECE408) {
		fmt.Printf("  %2d. %s\n", l.Number, l.Name)
	}
	labs.Unregister(saxpy.ID)
}
