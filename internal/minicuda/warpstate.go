package minicuda

// Warp-execution state: struct-of-arrays register banks plus the strand
// bookkeeping the warp engine in warp.go schedules over. One warpState
// services a whole warp (and is pooled across warps of a launch).
//
// Register layout is struct-of-arrays with the warp's live-lane count W as
// the stride: logical register r of a strand whose window base is b lives
// at bank[(b+r)*W + lane]. Two strands can only share a register row when
// their windows coincide (same call depth along the same call chain), and
// strands of one warp always hold disjoint lane sets, so concurrent
// strands never alias a (row, lane) cell.

import (
	"sync"

	"webgpu/internal/gpusim"
)

// callFrame is one saved frame on a strand's call stack.
type callFrame struct {
	pc         int32
	bI, bF, bP int32
	fn         *bcFunc
	dstBank    uint8
	dstReg     int32 // absolute index in the caller's bank
}

// strand is a group of lanes executing in lockstep at one program point.
// A warp starts as a single strand holding every lane; a divergent branch
// splits a strand in two, and strands whose control state becomes
// identical again (same pc, function, register windows, and call stack)
// are merged back by the scheduler — reconvergence without an explicit
// post-dominator analysis.
type strand struct {
	pc         int32
	fn         *bcFunc
	bI, bF, bP int32
	depth      int32
	stack      []callFrame

	lanes []int32 // active lanes, ascending
	// Step-budget accounting: lane l has consumed steps+base[l] steps.
	// base is indexed by lane id and only meaningful for active lanes;
	// maxBase caches the maximum over the active set so the per-instruction
	// budget check is a single compare (steps+maxBase > maxSteps).
	steps   int64
	base    []int64
	maxBase int64

	gen int // barrier generation while parked at a __syncthreads
}

// warpState holds the SoA register banks, lane metadata, and strand
// scratch for one warp. Reused across warps via warpStatePool, together
// with the warp's executor.
type warpState struct {
	W      int // lane stride (live lanes in this warp)
	ints   []int64
	floats []float64
	ptrs   []Pointer
	dims   [][12]int // per-lane builtin dims: threadIdx, blockIdx, blockDim, gridDim (x,y,z each)

	strands []*strand // recycle list
	wx      warpExec

	// One memory instruction's operands, per issuing lane: global
	// addresses, shared or constant element indices, and the words moved.
	addrs [maxWarpLanes]gpusim.Ptr
	idxs  [maxWarpLanes]int
	words [maxWarpLanes]uint32
	// A full strand's branch conditions, one per lane.
	cond [maxWarpLanes]int64
}

var warpStatePool = sync.Pool{New: func() any { return new(warpState) }}

// grow returns s extended (preserving contents) to hold at least need
// elements, doubling to amortize regrowth.
func grow[T any](s []T, need int) []T {
	if need <= len(s) {
		return s
	}
	n := make([]T, 2*need)
	copy(n, s)
	return n
}

// init prepares the state for one warp's lanes.
func (ws *warpState) init(wc *gpusim.WarpCtx) {
	W := wc.Lanes()
	ws.W = W
	if cap(ws.dims) < W {
		ws.dims = make([][12]int, W)
	}
	ws.dims = ws.dims[:W]
	b, bd, g := wc.BlockIdx, wc.BlockDim, wc.GridDim
	for l := range ws.dims {
		t := wc.ThreadIdx(l)
		ws.dims[l] = [12]int{t.X, t.Y, t.Z, b.X, b.Y, b.Z, bd.X, bd.Y, bd.Z, g.X, g.Y, g.Z}
	}
}

// newStrand returns a zeroed strand with capacity recycled from earlier
// splits, its base slice sized to the warp.
func (ws *warpState) newStrand() *strand {
	var s *strand
	if n := len(ws.strands); n > 0 {
		s = ws.strands[n-1]
		ws.strands = ws.strands[:n-1]
	} else {
		s = new(strand)
	}
	s.pc, s.fn, s.bI, s.bF, s.bP, s.depth = 0, nil, 0, 0, 0, 0
	s.stack = s.stack[:0]
	s.lanes = s.lanes[:0]
	s.steps, s.maxBase = 0, 0
	s.base = grow(s.base, ws.W)
	s.gen = 0
	return s
}

// freeStrand recycles a strand's backing storage.
func (ws *warpState) freeStrand(s *strand) {
	ws.strands = append(ws.strands, s)
}

// recomputeMaxBase refreshes the cached per-lane budget offset maximum.
func (s *strand) recomputeMaxBase() {
	m := int64(0)
	for i, l := range s.lanes {
		if b := s.base[l]; i == 0 || b > m {
			m = b
		}
	}
	s.maxBase = m
}

// sameFrame reports whether two strands are at the same control state and
// can merge: identical pc, function, register windows, depth, and call
// stack contents.
func sameFrame(a, b *strand) bool {
	if a.pc != b.pc || a.fn != b.fn || a.bI != b.bI || a.bF != b.bF ||
		a.bP != b.bP || a.depth != b.depth || len(a.stack) != len(b.stack) {
		return false
	}
	for i := range a.stack {
		if a.stack[i] != b.stack[i] {
			return false
		}
	}
	return true
}

// mergeInto folds o's lanes into s (both at the same control state per
// sameFrame). Per-lane step totals are preserved by rebasing o's lanes
// onto s's shared counter; the lane lists are disjoint and stay ascending.
func (ws *warpState) mergeInto(s, o *strand) {
	for _, l := range o.lanes {
		s.base[l] = o.base[l] + o.steps - s.steps
	}
	s.lanes = mergeLanes(s.lanes, o.lanes)
	s.recomputeMaxBase()
	ws.freeStrand(o)
}

// mergeLanes merges two ascending disjoint lane lists in place of a.
func mergeLanes(a, b []int32) []int32 {
	// Common fast path: all of b after all of a (or vice versa).
	if len(a) == 0 {
		return append(a, b...)
	}
	if b[0] > a[len(a)-1] {
		return append(a, b...)
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return append(a[:0], out...)
}
