package gpusim

// Warp-level launch path: a WarpKernelFunc executes a whole warp of
// threads in lockstep, decoding its program once per warp instead of once
// per thread. The simulator keeps the exact same observable model as the
// per-thread path — every memory access still goes through the owning
// lane's ThreadCtx (so the warp-synchronous coalescing model in cost.go
// sees identical per-thread event logs), and the block barrier is the same
// arrive/poll/retire counter, which a warp whose lanes diverge around a
// __syncthreads works lane group by lane group.

// WarpKernelFunc gives one warp of a kernel its turn: it runs the warp
// until every live lane is parked at the block barrier (parked is true,
// and the function is called again, with the same WarpCtx, once the
// barrier has released or the launch has aborted) or has retired. It never
// blocks. The function owns lane scheduling: it must route every memory
// access through the owning lane's ThreadCtx, call ExitLanes as lanes
// retire, and use the Sync* methods for barriers. Returning a non-nil
// error aborts the launch and ends the warp.
type WarpKernelFunc func(wc *WarpCtx) (parked bool, err error)

// WarpCtx is the execution context of one warp: its lane ThreadCtxs plus
// the barrier operations a lockstep executor needs.
type WarpCtx struct {
	Lanes []*ThreadCtx // live lanes, ascending thread order

	// State is the kernel function's to keep whatever must survive from
	// one turn of the warp to the next; nil on the first.
	State any

	block  *blockCtx
	exited int
}

// SyncArrive registers n lanes at the block barrier. It returns the
// generation token those lanes wait on, or released=true when their
// arrival completed the barrier (every live thread of the block had
// arrived) and execution continues past it immediately.
func (wc *WarpCtx) SyncArrive(n int) (gen int, released bool, err error) {
	return wc.block.arrive(n)
}

// SyncPoll reports whether barrier generation gen has released, returning
// the error the released lanes observe (abort or divergence).
func (wc *WarpCtx) SyncPoll(gen int) (bool, error) {
	return wc.block.poll(gen)
}

// ExitLanes retires n of the warp's lanes from the block's barrier
// participant set, with the same divergence detection as a per-thread
// exit: lanes exiting while others wait at a barrier flag ErrBarrierDivergence.
func (wc *WarpCtx) ExitLanes(n int) {
	if n > 0 {
		wc.exited += n
		wc.block.retire(n)
	}
}

// LaunchWarp executes kernel wk over the configured grid with warp-level
// granularity: one WarpKernelFunc per warp instead of one KernelFunc per
// thread. Scheduling, cost accounting, abort semantics, and returned
// statistics are identical to Launch.
func (d *Device) LaunchWarp(name string, cfg LaunchConfig, wk WarpKernelFunc) (*LaunchStats, error) {
	warpSize := d.warpSize()
	return d.launchRun(name, cfg, func(bc *blockCtx, ctxs []*ThreadCtx) {
		wcs := make([]WarpCtx, (len(ctxs)+warpSize-1)/warpSize)
		for w := range wcs {
			wcs[w] = WarpCtx{Lanes: ctxs[w*warpSize : min((w+1)*warpSize, len(ctxs))], block: bc}
		}
		bc.runTasks(len(wcs), func(w int) (parked bool) {
			wc := &wcs[w]
			defer bc.recoverTrap()
			unwinding := bc.aborted.Load()
			parked, err := wk(wc)
			if err != nil {
				bc.abort(err)
			}
			// A turn that began in an aborted launch was the warp's call to
			// unwind; one that still says parked is ended here.
			if parked && err == nil && !unwinding {
				return true
			}
			// Retire the lanes the kernel did not exit itself (the error
			// paths, where it unwound without its lane bookkeeping).
			wc.ExitLanes(len(wc.Lanes) - wc.exited)
			return false
		})
	})
}
