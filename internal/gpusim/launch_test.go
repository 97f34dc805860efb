package gpusim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// vecAddKernel is the canonical first CUDA kernel of the course.
func vecAddKernel(a, b, c Ptr, n int) KernelFunc {
	return func(tc *ThreadCtx) error {
		i := tc.BlockIdx.X*tc.BlockDim.X + tc.ThreadIdx.X
		tc.CountALU(2)
		if i >= n {
			return nil
		}
		x, err := tc.LoadFloat32(a, i)
		if err != nil {
			return err
		}
		y, err := tc.LoadFloat32(b, i)
		if err != nil {
			return err
		}
		tc.CountALU(1)
		return tc.StoreFloat32(c, i, x+y)
	}
}

func TestLaunchVecAdd(t *testing.T) {
	d := NewDefaultDevice()
	n := 1000
	av := make([]float32, n)
	bv := make([]float32, n)
	for i := range av {
		av[i] = float32(i)
		bv[i] = float32(2 * i)
	}
	a, _ := d.MallocFloat32(n, av)
	b, _ := d.MallocFloat32(n, bv)
	c, _ := d.Malloc(n * 4)

	cfg := LaunchConfig{Grid: D1((n + 255) / 256), Block: D1(256)}
	stats, err := d.Launch("vecAdd", cfg, vecAddKernel(a, b, c, n))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if stats.Threads != 4*256 {
		t.Errorf("Threads = %d, want %d", stats.Threads, 4*256)
	}
	out, err := d.ReadFloat32(c, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != float32(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, out[i], float32(3*i))
		}
	}
	if stats.GlobalLoads != int64(2*n) {
		t.Errorf("GlobalLoads = %d, want %d", stats.GlobalLoads, 2*n)
	}
	if stats.GlobalStores != int64(n) {
		t.Errorf("GlobalStores = %d, want %d", stats.GlobalStores, n)
	}
	if stats.SimCycles <= 0 || stats.SimTime <= 0 {
		t.Errorf("no simulated time recorded: %+v", stats)
	}
}

func TestLaunch2DGrid(t *testing.T) {
	d := NewDefaultDevice()
	w, h := 17, 9
	out, _ := d.Malloc(w * h * 4)
	cfg := LaunchConfig{Grid: D2((w+7)/8, (h+7)/8), Block: D2(8, 8)}
	_, err := d.Launch("index2d", cfg, func(tc *ThreadCtx) error {
		x := tc.BlockIdx.X*tc.BlockDim.X + tc.ThreadIdx.X
		y := tc.BlockIdx.Y*tc.BlockDim.Y + tc.ThreadIdx.Y
		if x >= w || y >= h {
			return nil
		}
		return tc.StoreInt32(out, y*w+x, int32(y*1000+x))
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadInt32(out, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if got[y*w+x] != int32(y*1000+x) {
				t.Fatalf("(%d,%d) = %d", x, y, got[y*w+x])
			}
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	wide := DefaultProps()
	wide.WarpSize = 2 * MaxWarpSize
	nop := func(tc *ThreadCtx) error { return nil }
	warpNop := func(wc *WarpCtx) (bool, error) { return false, nil }
	cases := []struct {
		props DeviceProps
		cfg   LaunchConfig
	}{
		{DefaultProps(), LaunchConfig{Grid: D1(1), Block: D1(0)}},
		{DefaultProps(), LaunchConfig{Grid: D1(0), Block: D1(32)}},
		{DefaultProps(), LaunchConfig{Grid: D1(1), Block: D1(2048)}},                        // too many threads
		{DefaultProps(), LaunchConfig{Grid: D1(1), Block: Dim3{1, 1, 128}}},                 // z too large
		{DefaultProps(), LaunchConfig{Grid: D1(1), Block: D1(32), SharedMemBytes: 1 << 20}}, // too much smem
		{DefaultProps(), LaunchConfig{Grid: D1(1), Block: D1(32), SharedMemBytes: -1}},
		{wide, LaunchConfig{Grid: D1(1), Block: D1(32)}}, // warps wider than a lane mask
	}
	for i, c := range cases {
		d := NewDevice(c.props)
		if _, err := d.Launch("bad", c.cfg, nop); !errors.Is(err, ErrInvalidLaunch) {
			t.Errorf("case %d: Launch err = %v, want ErrInvalidLaunch", i, err)
		}
		if _, err := d.LaunchWarp("bad", c.cfg, warpNop); !errors.Is(err, ErrInvalidLaunch) {
			t.Errorf("case %d: LaunchWarp err = %v, want ErrInvalidLaunch", i, err)
		}
	}
}

func TestSharedMemoryReduction(t *testing.T) {
	d := NewDefaultDevice()
	n := 512
	in := make([]float32, n)
	var want float64
	for i := range in {
		in[i] = float32(i%7) - 3
		want += float64(in[i])
	}
	inP, _ := d.MallocFloat32(n, in)
	outP, _ := d.Malloc(4)

	block := 256
	cfg := LaunchConfig{Grid: D1(n / block / 2), Block: D1(block), SharedMemBytes: block * 4}
	_, err := d.Launch("reduce", cfg, func(tc *ThreadCtx) error {
		t0 := tc.ThreadIdx.X
		start := 2 * tc.BlockIdx.X * tc.BlockDim.X
		x, err := tc.LoadFloat32(inP, start+t0)
		if err != nil {
			return err
		}
		y, err := tc.LoadFloat32(inP, start+t0+tc.BlockDim.X)
		if err != nil {
			return err
		}
		if err := tc.SharedStoreFloat32(t0, x+y); err != nil {
			return err
		}
		for stride := tc.BlockDim.X / 2; stride >= 1; stride /= 2 {
			if err := tc.SyncThreads(); err != nil {
				return err
			}
			if t0 < stride {
				a, _ := tc.SharedLoadFloat32(t0)
				b, _ := tc.SharedLoadFloat32(t0 + stride)
				if err := tc.SharedStoreFloat32(t0, a+b); err != nil {
					return err
				}
			}
		}
		if t0 == 0 {
			v, _ := tc.SharedLoadFloat32(0)
			if _, err := tc.AtomicAddFloat32(outP, 0, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, _ := d.ReadFloat32(outP, 1)
	if float64(got[0]) != want {
		t.Errorf("reduction = %v, want %v", got[0], want)
	}
}

func TestBarrierDivergenceDetected(t *testing.T) {
	d := NewDefaultDevice()
	cfg := LaunchConfig{Grid: D1(1), Block: D1(64)}
	_, err := d.Launch("diverge", cfg, func(tc *ThreadCtx) error {
		if tc.ThreadIdx.X < 32 {
			return tc.SyncThreads() // only half the block synchronizes
		}
		return nil
	})
	if !errors.Is(err, ErrBarrierDivergence) {
		t.Errorf("err = %v, want ErrBarrierDivergence", err)
	}
}

// TestBarrierDivergenceWhateverTheSchedule: a barrier only one thread of
// the block takes is divergent in either order of events — the taker
// arrives first and the others retire while it is parked (thread 0), or
// everyone else has retired before it arrives and its arrival completes
// the shrunken participant set by itself (the last thread; the order that
// used to hide the divergence, the TestDiffEdgeCases/case07 flake). Which
// thread takes the barrier fixes the order: a block's threads run in
// ascending order, each until it parks or finishes.
func TestBarrierDivergenceWhateverTheSchedule(t *testing.T) {
	const threads = 4
	for _, taker := range []int{0, threads - 1} {
		t.Run(fmt.Sprintf("thread%d", taker), func(t *testing.T) {
			d := NewDefaultDevice()
			cfg := LaunchConfig{Grid: D1(1), Block: D1(threads)}
			var atBarrier error
			stats, err := d.Launch("diverge", cfg, func(tc *ThreadCtx) error {
				if tc.ThreadIdx.X != taker {
					return nil
				}
				atBarrier = tc.SyncThreads()
				return atBarrier
			})
			if !errors.Is(atBarrier, ErrBarrierDivergence) || !errors.Is(err, ErrBarrierDivergence) {
				t.Errorf("SyncThreads = %v, Launch = %v; want ErrBarrierDivergence from both", atBarrier, err)
			}
			if !stats.Divergence || stats.Barriers != 1 {
				t.Errorf("Divergence = %v, Barriers = %d; want true, 1", stats.Divergence, stats.Barriers)
			}
		})
	}
}

// TestBarrierStallAborts: a WarpKernelFunc that says "parked" while lanes
// of its warp have neither arrived nor retired leaves the block with
// nothing runnable; the launch must end with ErrBarrierStall, not spin.
func TestBarrierStallAborts(t *testing.T) {
	// honest arrives all its lanes, then waits for the release.
	honest := func(wc *WarpCtx) (bool, error) {
		gen, arrived := wc.State.(int)
		if !arrived {
			g, released, err := wc.SyncArrive(wc.Lanes())
			if released || err != nil {
				return false, err
			}
			wc.State, gen = g, g
		}
		released, err := wc.SyncPoll(gen)
		return !released, err
	}
	for _, tc := range []struct {
		name   string
		block  int
		kernel WarpKernelFunc
		want   error
	}{
		{"control", 64, honest, nil},
		{"never arrives, ignores the abort", 32, func(wc *WarpCtx) (bool, error) { return true, nil }, ErrBarrierStall},
		{"arrives all lanes but one", 32, func(wc *WarpCtx) (bool, error) {
			if wc.State == nil {
				wc.State, _, _ = wc.SyncArrive(wc.Lanes() - 1)
				return true, nil
			}
			released, err := wc.SyncPoll(wc.State.(int))
			return !released, err
		}, ErrBarrierStall},
		{"one warp of two never arrives", 64, func(wc *WarpCtx) (bool, error) {
			if wc.ThreadIdx(0).X == 0 {
				return honest(wc)
			}
			return true, nil
		}, ErrBarrierStall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := NewDefaultDevice().LaunchWarp("stall", LaunchConfig{Grid: D1(4), Block: D1(tc.block)}, tc.kernel)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Errorf("err = %v, want %v", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("launch still spinning after 10 s")
			}
		})
	}
}

func TestKernelErrorAborts(t *testing.T) {
	d := NewDefaultDevice()
	boom := fmt.Errorf("boom")
	cfg := LaunchConfig{Grid: D1(4), Block: D1(64)}
	_, err := d.Launch("err", cfg, func(tc *ThreadCtx) error {
		if tc.GlobalThreadID() == 17 {
			return boom
		}
		return tc.SyncThreads() // others must not deadlock
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestOutOfBoundsLoadAborts(t *testing.T) {
	d := NewDefaultDevice()
	p, _ := d.Malloc(4)
	cfg := LaunchConfig{Grid: D1(1), Block: D1(32)}
	_, err := d.Launch("oob", cfg, func(tc *ThreadCtx) error {
		_, err := tc.LoadFloat32(p, tc.ThreadIdx.X) // threads 1.. are OOB
		return err
	})
	if !errors.Is(err, ErrIllegalAccess) {
		t.Errorf("err = %v, want ErrIllegalAccess", err)
	}
}

func TestNativePanicBecomesIllegalAccess(t *testing.T) {
	d := NewDefaultDevice()
	cfg := LaunchConfig{Grid: D1(1), Block: D1(8)}
	var arr [2]int
	_, err := d.Launch("panic", cfg, func(tc *ThreadCtx) error {
		// Threads 0-1 write distinct in-range elements; the rest panic
		// with index out of range, which must surface as an illegal
		// memory access.
		arr[tc.ThreadIdx.X] = 1
		return nil
	})
	if !errors.Is(err, ErrIllegalAccess) {
		t.Errorf("err = %v, want ErrIllegalAccess", err)
	}
}

func TestSharedMemoryIsPerBlock(t *testing.T) {
	d := NewDefaultDevice()
	blocks := 8
	out, _ := d.Malloc(blocks * 4)
	cfg := LaunchConfig{Grid: D1(blocks), Block: D1(32), SharedMemBytes: 4}
	_, err := d.Launch("smemiso", cfg, func(tc *ThreadCtx) error {
		if tc.ThreadIdx.X == 0 {
			if err := tc.SharedStoreInt32(0, int32(tc.BlockIdx.X)); err != nil {
				return err
			}
		}
		if err := tc.SyncThreads(); err != nil {
			return err
		}
		if tc.ThreadIdx.X == 31 {
			v, err := tc.SharedLoadInt32(0)
			if err != nil {
				return err
			}
			return tc.StoreInt32(out, tc.BlockIdx.X, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadInt32(out, blocks)
	for b := 0; b < blocks; b++ {
		if got[b] != int32(b) {
			t.Errorf("block %d saw shared value %d", b, got[b])
		}
	}
}

func TestConstMemoryLoadInKernel(t *testing.T) {
	d := NewDefaultDevice()
	if err := d.CopyToConst(0, Float32Bytes([]float32{10, 20, 30, 40})); err != nil {
		t.Fatal(err)
	}
	out, _ := d.Malloc(4 * 4)
	cfg := LaunchConfig{Grid: D1(1), Block: D1(4)}
	_, err := d.Launch("const", cfg, func(tc *ThreadCtx) error {
		v, err := tc.ConstLoadFloat32(tc.ThreadIdx.X)
		if err != nil {
			return err
		}
		return tc.StoreFloat32(out, tc.ThreadIdx.X, v*2)
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadFloat32(out, 4)
	if got[0] != 20 || got[3] != 80 {
		t.Errorf("const kernel = %v", got)
	}
}

// TestConstMemoryUntouchedReadsZero: constant memory is allocated by the
// first host write, so a kernel may read it before it exists. Such loads
// see zeros, are cost-accounted like any other, and are bounds-checked
// against the device's constant-memory size with the same trap.
func TestConstMemoryUntouchedReadsZero(t *testing.T) {
	run := func(d *Device, idx int) (float32, int32, *LaunchStats, error) {
		var f float32
		var n int32
		stats, err := d.Launch("const", LaunchConfig{Grid: D1(1), Block: D1(1)}, func(tc *ThreadCtx) error {
			var err error
			if f, err = tc.ConstLoadFloat32(idx); err != nil {
				return err
			}
			n, err = tc.ConstLoadInt32(idx)
			return err
		})
		return f, n, stats, err
	}
	fresh := NewDefaultDevice()
	last := fresh.props.TotalConstMem/4 - 1
	f, n, stats, err := run(fresh, last)
	if err != nil || f != 0 || n != 0 {
		t.Fatalf("load from untouched constant memory = %v, %v, %v; want zeros", f, n, err)
	}
	if stats.ConstLoads != 2 {
		t.Errorf("ConstLoads = %d, want 2", stats.ConstLoads)
	}
	// The same loads on a device whose constant memory exists.
	touched := NewDefaultDevice()
	if err := touched.CopyToConst(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, tstats, err := run(touched, last); err != nil || tstats.SimCycles != stats.SimCycles {
		t.Errorf("untouched device costs %d cycles, touched one %d (%v)", stats.SimCycles, tstats.SimCycles, err)
	}
	for _, idx := range []int{-1, last + 1} {
		_, _, _, ferr := run(fresh, idx)
		_, _, _, terr := run(touched, idx)
		if !errors.Is(ferr, ErrIllegalAccess) || ferr.Error() != terr.Error() {
			t.Errorf("load at element %d: untouched device %v, touched device %v", idx, ferr, terr)
		}
	}
	// Reset drops the contents, and with them the allocation.
	_ = touched.CopyToConst(0, Float32Bytes([]float32{7}))
	touched.Reset()
	if f, _, _, err := run(touched, 0); err != nil || f != 0 {
		t.Errorf("after Reset: load = %v, %v; want 0", f, err)
	}
	if touched.constMem != nil {
		t.Errorf("after Reset: constant memory still holds %d bytes", len(touched.constMem))
	}
}

func TestLaunchRecorded(t *testing.T) {
	d := NewDefaultDevice()
	cfg := LaunchConfig{Grid: D1(1), Block: D1(1)}
	for i := 0; i < 3; i++ {
		if _, err := d.Launch("nop", cfg, func(tc *ThreadCtx) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.LaunchCount(); got != 3 {
		t.Errorf("LaunchCount = %d, want 3", got)
	}
	if got := len(d.Launches()); got != 3 {
		t.Errorf("len(Launches) = %d, want 3", got)
	}
}

func TestAtomicsContended(t *testing.T) {
	d := NewDefaultDevice()
	ctr, _ := d.Malloc(4)
	cfg := LaunchConfig{Grid: D1(16), Block: D1(64)}
	_, err := d.Launch("atomics", cfg, func(tc *ThreadCtx) error {
		_, err := tc.AtomicAddInt32(ctr, 0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadInt32(ctr, 1)
	if got[0] != 16*64 {
		t.Errorf("atomic counter = %d, want %d", got[0], 16*64)
	}
}

func TestAtomicCASAndExch(t *testing.T) {
	d := NewDefaultDevice()
	p, _ := d.MallocInt32(1, []int32{5})
	cfg := LaunchConfig{Grid: D1(1), Block: D1(1)}
	_, err := d.Launch("cas", cfg, func(tc *ThreadCtx) error {
		old, err := tc.AtomicCASInt32(p, 0, 5, 9)
		if err != nil || old != 5 {
			return fmt.Errorf("cas1 old=%d err=%v", old, err)
		}
		old, err = tc.AtomicCASInt32(p, 0, 5, 100)
		if err != nil || old != 9 {
			return fmt.Errorf("cas2 old=%d err=%v", old, err)
		}
		old, err = tc.AtomicExchInt32(p, 0, 42)
		if err != nil || old != 9 {
			return fmt.Errorf("exch old=%d err=%v", old, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadInt32(p, 1)
	if got[0] != 42 {
		t.Errorf("final = %d, want 42", got[0])
	}
}

func TestAtomicMinMax(t *testing.T) {
	d := NewDefaultDevice()
	mx, _ := d.MallocInt32(1, []int32{-1 << 30})
	mn, _ := d.MallocInt32(1, []int32{1 << 30})
	cfg := LaunchConfig{Grid: D1(4), Block: D1(64)}
	_, err := d.Launch("minmax", cfg, func(tc *ThreadCtx) error {
		v := int32(tc.GlobalThreadID())
		if _, err := tc.AtomicMaxInt32(mx, 0, v); err != nil {
			return err
		}
		_, err := tc.AtomicMinInt32(mn, 0, v)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	gotMax, _ := d.ReadInt32(mx, 1)
	gotMin, _ := d.ReadInt32(mn, 1)
	if gotMax[0] != 255 || gotMin[0] != 0 {
		t.Errorf("max=%d min=%d, want 255, 0", gotMax[0], gotMin[0])
	}
}

func TestSharedAtomicAdd(t *testing.T) {
	d := NewDefaultDevice()
	out, _ := d.Malloc(4)
	cfg := LaunchConfig{Grid: D1(1), Block: D1(128), SharedMemBytes: 4}
	_, err := d.Launch("satomic", cfg, func(tc *ThreadCtx) error {
		if _, err := tc.SharedAtomicAddInt32(0, 1); err != nil {
			return err
		}
		if err := tc.SyncThreads(); err != nil {
			return err
		}
		if tc.ThreadIdx.X == 0 {
			v, _ := tc.SharedLoadInt32(0)
			return tc.StoreInt32(out, 0, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadInt32(out, 1)
	if got[0] != 128 {
		t.Errorf("shared atomic sum = %d, want 128", got[0])
	}
}

func TestUnflatten(t *testing.T) {
	e := Dim3{4, 3, 2}
	seen := map[Dim3]bool{}
	for f := 0; f < e.Count(); f++ {
		c := unflatten(f, e)
		if c.X < 0 || c.X >= 4 || c.Y < 0 || c.Y >= 3 || c.Z < 0 || c.Z >= 2 {
			t.Fatalf("coord out of range: %v", c)
		}
		if seen[c] {
			t.Fatalf("duplicate coord %v", c)
		}
		seen[c] = true
	}
	if len(seen) != e.Count() {
		t.Fatalf("covered %d of %d", len(seen), e.Count())
	}
}

func TestGlobalThreadIDsUnique(t *testing.T) {
	d := NewDefaultDevice()
	total := 6 * 50
	out, _ := d.Malloc(total * 4)
	cfg := LaunchConfig{Grid: Dim3{3, 2, 1}, Block: Dim3{10, 5, 1}}
	_, err := d.Launch("ids", cfg, func(tc *ThreadCtx) error {
		return tc.StoreInt32(out, tc.GlobalThreadID(), 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.ReadInt32(out, total)
	for i, v := range got {
		if v != 1 {
			t.Fatalf("slot %d not written (=%d): thread ids not a bijection", i, v)
		}
	}
}
