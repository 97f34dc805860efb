package minicuda_test

import (
	"testing"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
)

// fuzzSeeds is where both fuzz targets start: the lab references, the
// example kernels and the curated rows of the differential corpus.
func fuzzSeeds(t testing.TB) []hashSource {
	seeds := referencesAndExamples(t)
	for _, src := range minicuda.DiffEdgeSources() {
		seeds = append(seeds, hashSource{"edge", src, minicuda.DialectCUDA})
	}
	return seeds
}

// FuzzCompile: lowering is total over what the front end accepts — every
// program Compile returns lowers as its first launch would, without an
// internal compiler error — and a kernel with the differential skeleton
// k(int *iout, float *fout) runs alike on Launch and on the oracle.
func FuzzCompile(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s.src, uint8(s.dialect))
	}
	f.Fuzz(func(t *testing.T, src string, dialect uint8) {
		prog, err := minicuda.Compile(src, minicuda.Dialect(dialect%3))
		if err != nil {
			return
		}
		if err := minicuda.Lower(prog); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		minicuda.RequireEnginesAgree(t, src, prog)
	})
}

// FuzzDecodeProgram: a frame either fails to decode or launches on the
// warp engine — every kernel, on scratch arguments — without panicking.
func FuzzDecodeProgram(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		prog, err := minicuda.Compile(s.src, s.dialect)
		if err != nil {
			f.Fatalf("%s: %v", s.name, err)
		}
		data, err := minicuda.EncodeProgram(prog)
		if err != nil {
			f.Fatalf("%s: encode: %v", s.name, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := minicuda.DecodeProgram(data)
		if err != nil {
			return
		}
		dev := gpusim.NewDefaultDevice()
		for _, name := range prog.Kernels() {
			var args []minicuda.Arg
			for _, pd := range prog.Kernel(name).Params {
				if pd.Type.Kind != minicuda.KPtr {
					args = append(args, minicuda.Int(1))
					continue
				}
				p, err := dev.Malloc(256)
				if err != nil {
					t.Fatal(err)
				}
				args = append(args, minicuda.GlobalPtr(p, pd.Type.Elem))
			}
			// A launch error is a verdict on the frame; only a panic fails.
			// One block: a block runs on one goroutine, while two blocks
			// storing to one word are a host data race under -race.
			_, _ = prog.Launch(dev, name, minicuda.LaunchOpts{Grid: gpusim.D1(1), Block: gpusim.D1(32), MaxSteps: 1 << 12}, args...)
		}
	})
}
