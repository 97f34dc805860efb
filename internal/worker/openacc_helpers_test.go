package worker

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Aliases and helpers for the transient OpenACC lab used in
// TestNodeSelectsOpenACCImage, keeping the test body readable.

type (
	wbDataset = wb.Dataset
	wbFile    = wb.File
)

func wbVectorBytes(xs []float32) []byte { return wb.VectorBytes(xs) }

func minicudaOpenACC() minicuda.Dialect { return minicuda.DialectOpenACC }

// accSaxpyHarness runs the translated saxpy kernel: y = 2x + y.
func accSaxpyHarness(rc *labs.RunContext) wb.CheckResult {
	x := rc.Vector(rc.Input("x.raw"))
	y := rc.Vector(rc.Input("y.raw"))
	xP := rc.ToDevice(x)
	yP := rc.ToDevice(y)
	n := len(x)
	rc.Launch("saxpy", gpusim.D1((n+63)/64), gpusim.D1(64),
		minicuda.FloatPtr(xP), minicuda.FloatPtr(yP), minicuda.Int(n))
	got := rc.ReadBack(yP, n)
	want := rc.Vector(rc.Dataset.Expected.Data)
	return wb.CompareFloats(got, want, wb.DefaultTolerance)
}
