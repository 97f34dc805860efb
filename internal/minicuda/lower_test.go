package minicuda_test

import (
	"sync"
	"testing"

	"webgpu/internal/gpusim"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
	"webgpu/internal/progcache"
)

const lowerOnceSrc = `__global__ void sum(int *out, int n) {
  __shared__ int s[64];
  int t = threadIdx.x;
  s[t] = t < n ? t : 0;
  __syncthreads();
  for (int w = 32; w > 0; w = w / 2) {
    if (t < w) s[t] += s[t + w];
    __syncthreads();
  }
  if (t == 0) out[blockIdx.x] = s[0];
}`

// launchSum runs lowerOnceSrc's kernel on a device of its own and returns
// its stats without the wall time, the one field a rerun may change.
func launchSum(prog *minicuda.Program) (gpusim.LaunchStats, error) {
	dev := gpusim.NewDefaultDevice()
	out, err := dev.Malloc(2 * 4)
	if err != nil {
		return gpusim.LaunchStats{}, err
	}
	st, err := prog.Launch(dev, "sum", minicuda.LaunchOpts{Grid: gpusim.D1(2), Block: gpusim.D1(64)},
		minicuda.IntPtr(out), minicuda.Int(50))
	if err != nil {
		return gpusim.LaunchStats{}, err
	}
	s := *st
	s.WallTime = 0
	return s, nil
}

// TestLoweringIsLazyAndOnce: compiling, analyzing and decoding hold no
// warp code, so diagnostics over every lab reference, and a codec round
// trip, leave each program unlowered; eight first launches of one program
// racing each other lower it once, and each runs as a sequential launch
// does.
func TestLoweringIsLazyAndOnce(t *testing.T) {
	lowerings := minicuda.CountLowerings(t)
	c := progcache.New(0, nil)
	for _, l := range labs.All() {
		if _, err := c.Diagnostics(l.Reference, l.Dialect); err != nil {
			t.Fatalf("%s: %v", l.ID, err)
		}
		prog, err := c.Compile(l.Reference, l.Dialect)
		if err != nil {
			t.Fatalf("%s: %v", l.ID, err)
		}
		data, err := minicuda.EncodeProgram(prog)
		if err != nil {
			t.Fatalf("%s: encode: %v", l.ID, err)
		}
		dec, err := minicuda.DecodeProgram(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", l.ID, err)
		}
		if n, m := prog.BytecodeBytes(), dec.BytecodeBytes(); n != 0 || m != 0 {
			t.Errorf("%s: compiled and decoded programs hold %d and %d bytes of bytecode before any launch", l.ID, n, m)
		}
	}
	if n, st := lowerings.Load(), c.Stats(); n != 0 || st.BytecodeBytes != 0 {
		t.Fatalf("compile, diagnostics and decode lowered %d programs, cache holds %d bytecode bytes; want 0 and 0", n, st.BytecodeBytes)
	}

	seq, err := minicuda.Compile(lowerOnceSrc, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	want, err := launchSum(seq)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minicuda.Compile(lowerOnceSrc, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	before := lowerings.Load()
	const launchers = 8
	var wg sync.WaitGroup
	for g := 0; g < launchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := launchSum(prog)
			if err != nil {
				t.Errorf("launcher %d: %v", g, err)
			} else if got != want {
				t.Errorf("launcher %d: stats %+v, want the sequential launch's %+v", g, got, want)
			}
		}(g)
	}
	wg.Wait()
	if n := lowerings.Load() - before; n != 1 {
		t.Fatalf("%d concurrent first launches lowered the program %d times, want once", launchers, n)
	}
	if prog.BytecodeBytes() == 0 {
		t.Fatal("a launched program holds no bytecode")
	}
}
