package minicuda

import (
	"errors"
	"testing"
	"unsafe"

	"webgpu/internal/gpusim"
)

const bcTestVecAdd = `
__global__ void vecAdd(int *out, int *a, int *b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { out[i] = a[i] + b[i]; }
}`

// TestBytecodeArtifactMetadata checks the artifact accessors the program
// cache and worker tracing rely on.
func TestBytecodeArtifactMetadata(t *testing.T) {
	prog, err := Compile(bcTestVecAdd, DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	n := prog.InstructionCount()
	if n <= 0 {
		t.Fatalf("InstructionCount = %d, want > 0", n)
	}
	if got, want := prog.BytecodeBytes(), n*int(unsafe.Sizeof(instr{})); got != want {
		t.Fatalf("BytecodeBytes = %d, want %d", got, want)
	}
}

// TestTrapSentinels: the warp engine must return the interpreter's sentinel
// errors (not lookalikes) so errors.Is-based handling in the worker keeps
// working.
func TestTrapSentinels(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		maxSteps int64
		sentinel error
	}{
		{"div-by-zero", `__global__ void k(int *o, int n) { o[0] = 1 / n; }`, 0, ErrDivByZero},
		{"step-limit", `__global__ void k(int *o, int n) { while (1) { n++; } o[0] = n; }`, 500, ErrStepLimit},
		{"call-depth", `__device__ int r(int n) { return r(n + 1); }
__global__ void k(int *o, int n) { o[0] = r(n); }`, 0, ErrCallDepth},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Compile(c.src, DialectCUDA)
			if err != nil {
				t.Fatal(err)
			}
			var msgs [2]string
			for i, e := range engines {
				dev := gpusim.NewDefaultDevice()
				o, _ := dev.Malloc(4)
				_, lerr := e.launch(prog, dev, "k",
					LaunchOpts{Grid: gpusim.D1(1), Block: gpusim.D1(1), MaxSteps: c.maxSteps},
					IntPtr(o), Int(0))
				if lerr == nil {
					t.Fatalf("%s: expected an error", e.name)
				}
				if !errors.Is(lerr, c.sentinel) {
					t.Fatalf("%s: error %v is not %v", e.name, lerr, c.sentinel)
				}
				msgs[i] = lerr.Error()
			}
			if msgs[0] != msgs[1] {
				t.Fatalf("trap message divergence:\ntree: %q\nwarp: %q", msgs[0], msgs[1])
			}
		})
	}
}

// TestEngineOverride: Launch and the oracle's LaunchTree produce the same
// result.
func TestEngineOverride(t *testing.T) {
	prog, err := Compile(bcTestVecAdd, DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var want []int32
	for _, e := range engines {
		dev := gpusim.NewDefaultDevice()
		out, _ := dev.Malloc(n * 4)
		av := make([]int32, n)
		bv := make([]int32, n)
		for i := range av {
			av[i] = int32(i * 3)
			bv[i] = int32(100 - i)
		}
		a, err := dev.MallocInt32(n, av)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dev.MallocInt32(n, bv)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.launch(prog, dev, "vecAdd",
			LaunchOpts{Grid: gpusim.D1(2), Block: gpusim.D1(32)},
			IntPtr(out), IntPtr(a), IntPtr(b), Int(n))
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		got, _ := dev.ReadInt32(out, n)
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: out[%d] = %d, want %d", e.name, i, got[i], want[i])
			}
		}
	}
}
