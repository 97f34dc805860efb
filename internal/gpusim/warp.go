package gpusim

// Warp-level launch path: a WarpKernelFunc executes a whole warp of
// threads in lockstep, decoding its program once per warp instead of once
// per thread. A warp is one Unit: it charges its lanes' compute in bulk,
// and it prices memory where the hardware does, at the instruction. Each
// memory entry point below is handed one warp-wide issue of one
// instruction — the issuing lanes' addresses, in ascending lane order —
// and charges that issue's transactions on the spot (cost.go states the
// rule), so nothing is logged and nothing is recounted at block end. The
// block barrier is the same arrive/poll/retire counter the per-thread path
// uses, which a warp whose lanes diverge around a __syncthreads works lane
// group by lane group.

// WarpKernelFunc gives one warp of a kernel its turn: it runs the warp
// until every live lane is parked at the block barrier (parked is true,
// and the function is called again, with the same WarpCtx, once the
// barrier has released or the launch has aborted) or has retired. It never
// blocks. The function owns lane scheduling: it must issue memory through
// the WarpCtx entry points, call ExitLanes as lanes retire, and use the
// Sync* methods for barriers. Returning a non-nil error aborts the launch
// and ends the warp.
type WarpKernelFunc func(wc *WarpCtx) (parked bool, err error)

// WarpCtx is the execution context of one warp: its geometry, the memory
// entry points a lockstep executor issues through, and the barrier
// operations it needs.
type WarpCtx struct {
	Unit
	BlockIdx Dim3
	BlockDim Dim3
	GridDim  Dim3

	// State is the kernel function's to keep whatever must survive from
	// one turn of the warp to the next; nil on the first.
	State any

	first, lanes int // flat thread index of lane 0; lane count
	exited       int
}

// Lanes returns the number of threads in the warp.
func (wc *WarpCtx) Lanes() int { return wc.lanes }

// ThreadIdx returns the thread index of lane l.
func (wc *WarpCtx) ThreadIdx(l int) Dim3 { return unflatten(wc.first+l, wc.BlockDim) }

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

// The memory entry points take one issue of one instruction: the issuing
// lanes' addresses, and the words loaded or stored, one per lane. Lanes
// move their data in ascending order; the first lane out of bounds traps
// with the error a thread's access would, after the lanes before it have
// moved theirs. They return the number of lanes that completed, which
// are what is counted and charged.

// LoadGlobal loads one size-byte element (1 or 4), zero-extended, from
// each lane's address.
func (wc *WarpCtx) LoadGlobal(size int, addrs []Ptr, out []uint32) (int, error) {
	return wc.global(size, addrs, out, false)
}

// StoreGlobal stores the low size bytes (1 or 4) of each lane's word at
// its address.
func (wc *WarpCtx) StoreGlobal(size int, addrs []Ptr, vals []uint32) (int, error) {
	return wc.global(size, addrs, vals, true)
}

func (wc *WarpCtx) global(size int, addrs []Ptr, words []uint32, store bool) (n int, err error) {
	var segBuf [64]gSeg
	segs := segBuf[:0]
	var cur uint64
	var data []byte
	for i, p := range addrs {
		if p.alloc != cur || data == nil {
			if data, err = wc.block.resolve(p); err != nil {
				break
			}
			cur = p.alloc
		}
		if p.Off < 0 || p.Off+size > len(data) {
			err = outOfBounds(p, size, len(data))
			break
		}
		v := data[p.Off:]
		switch {
		case store && size == 4:
			putLeU32(v, words[i])
		case store:
			v[0] = byte(words[i])
		case size == 4:
			words[i] = leU32(v)
		default:
			words[i] = uint32(v[0])
		}
		segs = addSegs(segs, p.alloc, p.Off, size)
		n++
	}
	if store {
		wc.stats.gStores += int64(n)
	} else {
		wc.stats.gLoads += int64(n)
	}
	wc.stats.gTx += int64(len(segs))
	return n, err
}

// LoadShared loads the 32-bit word at element idx of the block's shared
// memory for each lane.
func (wc *WarpCtx) LoadShared(idxs []int, out []uint32) (int, error) {
	return wc.shared(idxs, out, false)
}

// StoreShared stores each lane's word at its element of shared memory.
func (wc *WarpCtx) StoreShared(idxs []int, vals []uint32) (int, error) {
	return wc.shared(idxs, vals, true)
}

func (wc *WarpCtx) shared(idxs []int, words []uint32, store bool) (n int, err error) {
	sh := wc.block.shared
	for i, idx := range idxs {
		off := idx * 4
		if off < 0 || off+4 > len(sh) {
			err = sharedOutOfBounds(off, 4, len(sh))
			break
		}
		if store {
			putLeU32(sh[off:], words[i])
		} else {
			words[i] = leU32(sh[off:])
		}
		n++
	}
	wc.stats.sAccess += int64(n)
	wc.stats.sTx += bankDegree(idxs[:n])
	return n, err
}

// LaunchWarp executes kernel wk over the configured grid with warp-level
// granularity: one WarpKernelFunc per warp instead of one KernelFunc per
// thread. Scheduling, abort semantics, and returned statistics are those
// of Launch; cost accounting is the same rule, charged at the instruction.
func (d *Device) LaunchWarp(name string, cfg LaunchConfig, wk WarpKernelFunc) (*LaunchStats, error) {
	warpSize := d.warpSize()
	threads := cfg.Block.Count()
	nw := (threads + warpSize - 1) / warpSize
	return d.launchRun(name, cfg, func(bc *blockCtx, scr *blockScratch) counters {
		if cap(scr.warps) < nw {
			scr.warps = make([]WarpCtx, nw)
		}
		wcs := scr.warps[:nw]
		for w := range wcs {
			wcs[w] = WarpCtx{
				Unit:     Unit{dev: d, block: bc},
				BlockIdx: bc.blockIdx,
				BlockDim: cfg.Block,
				GridDim:  cfg.Grid,
				first:    w * warpSize,
				lanes:    min(warpSize, threads-w*warpSize),
			}
		}
		bc.runTasks(nw, func(w int) (parked bool) {
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
			wc.ExitLanes(wc.lanes - wc.exited)
			return false
		})
		var c counters
		for w := range wcs {
			c.add(&wcs[w].stats)
		}
		return c
	})
}
