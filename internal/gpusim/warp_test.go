package gpusim

import (
	"errors"
	"testing"
)

// copyWarp is a LaunchWarp kernel: every lane copies in[i] to out[i]
// through its slot of shared memory, one warp-wide issue per access.
func copyWarp(in, out Ptr) WarpKernelFunc {
	return func(wc *WarpCtx) (bool, error) {
		n := wc.Lanes()
		var addrs, outs [32]Ptr
		var idxs [32]int
		var words [32]uint32
		for l := 0; l < n; l++ {
			t := wc.ThreadIdx(l).X
			i := wc.BlockIdx.X*wc.BlockDim.X + t
			addrs[l], outs[l], idxs[l] = in.Offset(4*i), out.Offset(4*i), t
		}
		if _, err := wc.LoadGlobal(4, addrs[:n], words[:n]); err != nil {
			return false, err
		}
		if _, err := wc.StoreShared(idxs[:n], words[:n]); err != nil {
			return false, err
		}
		if _, err := wc.LoadShared(idxs[:n], words[:n]); err != nil {
			return false, err
		}
		if _, err := wc.StoreGlobal(4, outs[:n], words[:n]); err != nil {
			return false, err
		}
		wc.ExitLanes(n)
		return false, nil
	}
}

// copyThread is copyWarp one thread at a time.
func copyThread(in, out Ptr) KernelFunc {
	return func(tc *ThreadCtx) error {
		t := tc.ThreadIdx.X
		i := tc.BlockIdx.X*tc.BlockDim.X + t
		v, err := tc.LoadFloat32(in, i)
		if err != nil {
			return err
		}
		if err := tc.SharedStoreFloat32(t, v); err != nil {
			return err
		}
		if v, err = tc.SharedLoadFloat32(t); err != nil {
			return err
		}
		return tc.StoreFloat32(out, i, v)
	}
}

// TestWarpChargesAsThreadsLog: charged at the instruction, a warp costs
// what its threads' logs cost when regrouped at block end.
func TestWarpChargesAsThreadsLog(t *testing.T) {
	d := NewDefaultDevice()
	n := 4 * 256
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
	}
	in, _ := d.MallocFloat32(n, xs)
	out, _ := d.Malloc(n * 4)
	cfg := LaunchConfig{Grid: D1(4), Block: D1(256), SharedMemBytes: 1024, NoBarriers: true}
	warp, err := d.LaunchWarp("copy", cfg, copyWarp(in, out))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d.ReadFloat32(out, n); got[n-1] != xs[n-1] {
		t.Fatalf("out[%d] = %v, want %v", n-1, got[n-1], xs[n-1])
	}
	thread, err := d.Launch("copy", cfg, copyThread(in, out))
	if err != nil {
		t.Fatal(err)
	}
	warp.WallTime, thread.WallTime = 0, 0
	if *warp != *thread {
		t.Errorf("LaunchWarp %+v\nLaunch     %+v", *warp, *thread)
	}
	if warp.GlobalTx != 2*int64(n)/32 || warp.SharedTx != 2*int64(n)/32 {
		t.Errorf("GlobalTx %d, SharedTx %d; want one per warp access", warp.GlobalTx, warp.SharedTx)
	}
}

// TestWarpIssueTrapsAtFirstBadLane: the lanes before the first lane out of
// bounds store and are counted; that lane traps with a thread's error.
func TestWarpIssueTrapsAtFirstBadLane(t *testing.T) {
	d := NewDefaultDevice()
	p, _ := d.Malloc(8)
	var done int
	_, err := d.LaunchWarp("oob", LaunchConfig{Grid: D1(1), Block: D1(4)}, func(wc *WarpCtx) (bool, error) {
		addrs := []Ptr{p, p.Offset(4), p.Offset(8), p}
		n, err := wc.StoreGlobal(4, addrs, []uint32{7, 8, 9, 10})
		done = n
		return false, err
	})
	if !errors.Is(err, ErrIllegalAccess) || done != 2 {
		t.Fatalf("err = %v after %d lanes; want ErrIllegalAccess after 2", err, done)
	}
	if got, _ := d.ReadInt32(p, 2); got[0] != 7 || got[1] != 8 {
		t.Errorf("memory %v, want [7 8]", got)
	}
	if s := d.Launches()[0]; s.GlobalStores != 2 || s.GlobalTx != 1 {
		t.Errorf("GlobalStores %d, GlobalTx %d; want 2, 1", s.GlobalStores, s.GlobalTx)
	}
}

// TestWarpLaunchAllocatesPerLaunchNotPerBlock: a warm LaunchWarp takes
// every block's working set — context, tasks, warps, shared arena — from
// its worker's pooled scratch, so a 64-block launch allocates what a
// 4-block one does.
func TestWarpLaunchAllocatesPerLaunchNotPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	d := NewDefaultDevice()
	n := 64 * 256
	in, _ := d.Malloc(n * 4)
	out, _ := d.Malloc(n * 4)
	k := copyWarp(in, out)
	allocs := func(blocks int) float64 {
		cfg := LaunchConfig{Grid: D1(blocks), Block: D1(256), SharedMemBytes: 1024}
		launch := func() {
			if _, err := d.LaunchWarp("copy", cfg, k); err != nil {
				t.Fatal(err)
			}
		}
		launch()
		return testing.AllocsPerRun(50, launch)
	}
	if a4, a64 := allocs(4), allocs(64); a4 != a64 {
		t.Errorf("a warm launch allocates %v times at 4 blocks, %v at 64", a4, a64)
	}
}
