package minicuda

// Warp engine: executes the lowered bytecode once per *warp* instead of
// once per thread. Each instruction is fetched and dispatched a single
// time, then applied across all active lanes of a strand through the
// struct-of-arrays register banks in warpstate.go. Divergence is handled
// by strand splitting: a non-uniform branch partitions the active lanes
// into two strands, and the scheduler (earliest first) naturally brings
// split strands back together at the join point, where strands with
// identical control state merge. A fully-uniform branch never splits and
// stays a single jump, so convergent code pays no divergence tax.
//
// On top of the plain stream, buildWarpProgram fuses adjacent instruction
// pairs matching the idioms course kernels are made of (multiply-add,
// indexed load/store, compare-and-branch, increment-and-loop) into
// superinstructions executed with one dispatch, one budget check, and one
// batched ALU charge.
//
// A strand that holds every lane of its warp (len(lanes) == W, so its
// lanes are 0..W-1) runs the hot ops as loops over the contiguous register
// windows ints[a:a+W], and takes a uniform JZ/JNZ or compare-and-branch
// after one early-exit scan, without partitioning lanes. The windows are
// the cells the lane list names, in its order, and every charge, register
// write, trap and budget check stays where the lane-list loop has it, so
// the full-warp path is observationally identical. Partial strands, and
// ops and types the path leaves out, keep the lane-list loops.
//
// Memory is priced where the hardware prices it: every load and store
// is one warp-wide issue — the strand's active lanes — handed to the
// gpusim.WarpCtx entry point of its memory class, which moves the data in
// ascending lane order, traps at the first bad lane and charges the
// issue's transactions on the spot. Compute (ALU, special, branch,
// barrier) is charged to the warp in bulk: only block sums are observable.
//
// Parity contract (enforced by the differential oracle in diff_test.go):
// results, LaunchStats, and error strings match the tree walker exactly
// for race-free kernels. The tree walker keys each access by its dynamic
// instance (interp.go), and the scheduler keeps exactly the lanes of one
// instance in one strand when it issues: strands run earliest first in
// the warp's structured order (before), and one that reaches a later
// sibling's pc, or changes frame, or leaves a barrier another strand of
// the warp is also released from, yields so they merge first. Step
// budgets are per-lane exact: a strand carries a shared counter plus
// per-lane offsets (rebased on merge), and fused superinstructions fall
// back to component-at-a-time replay when a budget trap could fire inside
// them. For single-lane launches the warp engine traps at the same point
// as the tree walker; for multi-lane launches that trap mid-kernel, the
// set of partially-executed threads may differ from serial per-thread
// execution (lockstep lanes run together), exactly as concurrent
// per-thread execution already differs from serial.

import (
	"math"

	"webgpu/internal/gpusim"
)

// maxWarpLanes bounds the lane count the warp engine supports (lane masks
// and scratch assume it); gpusim refuses to launch on wider warps.
const maxWarpLanes = gpusim.MaxWarpSize

// wOp tags a winstr with its fusion kind.
type wOp uint8

const (
	wPlain    wOp = iota // execute in alone
	wFMA                 // opMulF ; opAddF
	wLoadIdx             // opPAdd ; opLoad   (load through the just-formed pointer)
	wStoreIdx            // opPAdd ; opStoreI/opStoreF
	wCmpJZ               // opCmpI/U/F ; opJZ/opJNZ on the compare result
	wAddKJmp             // opAddKI ; opJmp   (loop-counter increment + back edge)
)

// winstr is one warp instruction: a bytecode instruction, or a fused pair.
// Charges are lifted out of the component instrs so the fast path applies
// them in one batch; the components keep their own copies for the
// near-budget replay path.
type winstr struct {
	fuse wOp
	// dead marks a fused pair whose intermediate register (the first
	// component's destination) is read by nothing in the program except the
	// second component: the fast path then skips materializing it. Registers
	// are never observable outside instruction reads, so the skip is exact.
	dead           bool
	alu1, alu2     uint8
	steps1, steps2 uint16
	in, in2        instr
}

// warpProgram is the warp-execution artifact derived from a lowered
// bytecodeProgram: the fused instruction stream plus pc-remapped entry
// points. It is immutable after construction and shared across launches.
type warpProgram struct {
	bc        *bytecodeProgram
	code      []winstr
	entry     map[*bcFunc]int32
	callEntry []int32 // per bc.calls index: fused-stream entry pc of the target
}

// fuseKind reports the superinstruction formed by the adjacent pair (a, b),
// or wPlain. Fused execution preserves every register write of both
// components, so the only legality conditions are the dataflow the fused
// executor assumes (the second op consuming the first's destination where
// the pattern requires it).
func fuseKind(a, b *instr) wOp {
	switch a.op {
	case opMulF:
		if b.op == opAddF {
			return wFMA
		}
	case opPAdd:
		switch b.op {
		case opLoad:
			if b.b == a.a {
				return wLoadIdx
			}
		case opStoreI, opStoreF:
			if b.b == a.a {
				return wStoreIdx
			}
		}
	case opCmpI, opCmpU, opCmpF:
		if (b.op == opJZ || b.op == opJNZ) && b.kind == bankI && b.b == a.a {
			return wCmpJZ
		}
	case opAddKI:
		if b.op == opJmp {
			return wAddKJmp
		}
	}
	return wPlain
}

// countReads scans every instruction of the program and counts how many
// static sites read each (window-relative) register number, per bank. The
// count is pooled across functions (registers of different functions that
// share a number alias in the count), which only costs missed dead-temp
// opportunities, never correctness.
func countReads(bc *bytecodeProgram) (readsI, readsF, readsP []int32) {
	var maxI, maxF, maxP int32
	for _, f := range bc.funcs {
		maxI, maxF, maxP = max(maxI, f.numI), max(maxF, f.numF), max(maxP, f.numP)
	}
	readsI = make([]int32, maxI)
	readsF = make([]int32, maxF)
	readsP = make([]int32, maxP)
	mark := func(bank uint8, reg int32) {
		switch bank {
		case bankI:
			readsI[reg]++
		case bankF:
			readsF[reg]++
		case bankP:
			readsP[reg]++
		}
	}
	for i := range bc.code {
		in := &bc.code[i]
		switch in.op {
		case opMovI, opTruncI, opNegI, opNotI, opAddKI, opAbsI, opLNotI,
			opTruthyI, opI2F, opI2FRaw, opWorkItem:
			mark(bankI, in.b)
		case opAddI, opSubI, opMulI, opDivI, opModI, opDivU, opModU,
			opAndI, opOrI, opXorI, opShlI, opShrI, opShrU,
			opMinI, opMaxI, opCmpI, opCmpU:
			mark(bankI, in.b)
			mark(bankI, in.c)
		case opMovF, opNegF, opAddKF, opFAbsF, opFloor, opCeil, opSqrt,
			opRsqrt, opExp, opLog, opSin, opCos, opF2F, opF2I, opF2IRaw,
			opLNotF, opTruthyF:
			mark(bankF, in.b)
		case opAddF, opSubF, opMulF, opDivF, opMinF, opMaxF, opPow, opCmpF:
			mark(bankF, in.b)
			mark(bankF, in.c)
		case opMovP, opPAddK, opLNotP, opTruthyP, opLoad:
			mark(bankP, in.b)
		case opCmpP, opPDiff:
			mark(bankP, in.b)
			mark(bankP, in.c)
		case opPAdd:
			mark(bankP, in.b)
			mark(bankI, in.c)
		case opStoreI:
			mark(bankP, in.b)
			mark(bankI, in.c)
		case opStoreF:
			mark(bankP, in.b)
			mark(bankF, in.c)
		case opStoreP:
			mark(bankP, in.b)
			mark(bankP, in.c)
		case opJZ, opJNZ, opRet:
			if in.kind != bankNone {
				mark(in.kind, in.b)
			}
		case opCall:
			for _, m := range bc.calls[in.aux].moves {
				mark(m.bank, m.src)
			}
		case opAtomic:
			spec := bc.atomics[in.aux]
			mark(bankP, in.b)
			if atomFloatVal(spec) {
				mark(bankF, in.c)
			} else {
				mark(bankI, in.c)
			}
			if spec.name == "atomicCAS" {
				mark(bankI, spec.val2)
			}
		}
	}
	return readsI, readsF, readsP
}

// buildWarpProgram lowers a bytecode program into the fused warp stream.
// Fusion never crosses an instruction that some jump, call return, or
// function entry can land on, so every control transfer still targets the
// start of a warp instruction; jump targets are remapped afterwards.
func buildWarpProgram(bc *bytecodeProgram) *warpProgram {
	n := len(bc.code)
	isTarget := make([]bool, n+1)
	for i := range bc.code {
		switch bc.code[i].op {
		case opJmp, opJZ, opJNZ:
			isTarget[bc.code[i].aux] = true
		case opCall:
			isTarget[i+1] = true // the call's return pc
		}
	}
	for _, f := range bc.funcs {
		isTarget[f.entry] = true
	}

	readsI, readsF, readsP := countReads(bc)
	old2new := make([]int32, n+1)
	code := make([]winstr, 0, n)
	// consumed counts, per register, the reads that are the adjacent
	// consuming read of a fused pair defining that register.
	consumedI := make([]int32, len(readsI))
	consumedF := make([]int32, len(readsF))
	consumedP := make([]int32, len(readsP))
	for i := 0; i < n; i++ {
		in := bc.code[i]
		w := winstr{fuse: wPlain, steps1: in.steps, alu1: in.alu, in: in}
		if i+1 < n && !isTarget[i+1] {
			if f := fuseKind(&bc.code[i], &bc.code[i+1]); f != wPlain {
				nx := bc.code[i+1]
				w.fuse, w.in2, w.steps2, w.alu2 = f, nx, nx.steps, nx.alu
				switch f {
				case wFMA:
					if nx.b == in.a {
						consumedF[in.a]++
					}
					if nx.c == in.a {
						consumedF[in.a]++
					}
				case wLoadIdx, wStoreIdx:
					consumedP[in.a]++
				case wCmpJZ:
					consumedI[in.a]++
				}
			}
		}
		old2new[i] = int32(len(code))
		code = append(code, w)
		if w.fuse != wPlain {
			old2new[i+1] = int32(len(code)) // never a target; keep monotone
			i++
		}
	}
	old2new[n] = int32(len(code))
	// A fused pair's intermediate is dead when every read of its register
	// anywhere in the program is the consuming read of some fused pair
	// defining it: then each dynamic instance's only observer is its own
	// adjacent consumer, and the fast path may skip materializing it.
	for i := range code {
		w := &code[i]
		switch w.fuse {
		case wFMA:
			w.dead = readsF[w.in.a] == consumedF[w.in.a]
		case wLoadIdx, wStoreIdx:
			w.dead = readsP[w.in.a] == consumedP[w.in.a]
		case wCmpJZ:
			w.dead = readsI[w.in.a] == consumedI[w.in.a]
		}
	}

	for i := range code {
		w := &code[i]
		switch {
		case w.fuse == wPlain && (w.in.op == opJmp || w.in.op == opJZ || w.in.op == opJNZ):
			w.in.aux = old2new[w.in.aux]
		case w.fuse == wCmpJZ || w.fuse == wAddKJmp:
			w.in2.aux = old2new[w.in2.aux]
		}
	}
	entry := make(map[*bcFunc]int32, len(bc.funcs))
	for _, f := range bc.funcs {
		entry[f] = old2new[f.entry]
	}
	callEntry := make([]int32, len(bc.calls))
	for i, cs := range bc.calls {
		callEntry[i] = entry[cs.target]
	}
	return &warpProgram{bc: bc, code: code, entry: entry, callEntry: callEntry}
}

// Strand control outcomes of executing an instruction / running a strand.
const (
	ctlNone  uint8 = iota
	ctlYield       // reached the scheduler watermark (merge opportunity)
	ctlSplit       // divergent branch: wx.split holds the taken-side strand
	ctlSync        // parked at a barrier; s.gen holds the generation token
	ctlExit        // the strand's lanes returned from the kernel
)

// warpExec is the execution context of one warp for the length of a
// launch; it lives in the warp's WarpCtx.State between turns, and in its
// pooled warpState after.
type warpExec struct {
	wp       *warpProgram
	ws       *warpState
	wc       *gpusim.WarpCtx
	bound    []Value
	maxSteps int64

	runnable, waiting []*strand // waiting: parked at a barrier

	split            *strand // strand produced by a divergent branch
	jumpBuf, stayBuf []int32 // branch partition scratch
}

// run gives one warp of kernel kfn its turn (gpusim.WarpKernelFunc): the
// first call sets the warp up, every call runs it until all its live lanes
// are parked at the block barrier or the warp is finished.
func (wp *warpProgram) run(wc *gpusim.WarpCtx, kfn *bcFunc, bound []Value, maxSteps int64) (parked bool, err error) {
	wx, _ := wc.State.(*warpExec)
	if wx == nil {
		ws := warpStatePool.Get().(*warpState)
		ws.init(wc)
		wx = &ws.wx
		*wx = warpExec{wp: wp, ws: ws, wc: wc, bound: bound, maxSteps: maxSteps,
			runnable: wx.runnable[:0], waiting: wx.waiting[:0],
			jumpBuf: wx.jumpBuf[:0], stayBuf: wx.stayBuf[:0]}
		wx.start(kfn)
		wc.State = wx
	}
	parked, err = wx.resume()
	if !parked {
		// A trap leaves strands behind; keep them for the next warp.
		ws := wx.ws
		ws.strands = append(append(ws.strands, wx.runnable...), wx.waiting...)
		warpStatePool.Put(ws)
	}
	return parked, err
}

// start loads the kernel arguments and makes the whole warp one runnable
// strand at the kernel's entry.
func (wx *warpExec) start(kfn *bcFunc) {
	ws := wx.ws
	W := ws.W
	ws.ints = grow(ws.ints, int(kfn.numI)*W)
	ws.floats = grow(ws.floats, int(kfn.numF)*W)
	ws.ptrs = grow(ws.ptrs, int(kfn.numP)*W)
	for i, p := range kfn.params {
		v := wx.bound[i]
		col := int(p.reg) * W
		switch p.bank {
		case bankI:
			for l := 0; l < W; l++ {
				ws.ints[col+l] = v.I
			}
		case bankF:
			for l := 0; l < W; l++ {
				ws.floats[col+l] = v.F
			}
		default:
			for l := 0; l < W; l++ {
				ws.ptrs[col+l] = v.P
			}
		}
	}

	root := ws.newStrand()
	root.fn = kfn
	root.pc = wx.wp.entry[kfn]
	for l := 0; l < W; l++ {
		root.lanes = append(root.lanes, int32(l))
		root.base[l] = 0
	}
	wx.runnable = append(wx.runnable, root)
}

// resume schedules the warp's strands until none is runnable: parked is
// true when the rest wait on a barrier only other warps can complete,
// false when every lane has exited (or on a trap, returned as the error).
func (wx *warpExec) resume() (parked bool, err error) {
	ws, wc := wx.ws, wx.wc
	for {
		// Unpark strands whose barrier released (possibly by our own
		// arrivals or lane exits).
		if len(wx.waiting) > 0 {
			kept := wx.waiting[:0]
			for _, s := range wx.waiting {
				rel, err := wc.SyncPoll(s.gen)
				if err != nil {
					return false, err
				}
				if rel {
					wx.runnable = append(wx.runnable, s)
				} else {
					kept = append(kept, s)
				}
			}
			wx.waiting = kept
		}
		if len(wx.runnable) == 0 {
			return len(wx.waiting) > 0, nil
		}

		// Pick the earliest strand and merge every strand that reconverged
		// with it.
		si := 0
		for i := 1; i < len(wx.runnable); i++ {
			if before(wx.runnable[i], wx.runnable[si]) {
				si = i
			}
		}
		s := wx.runnable[si]
		for i := len(wx.runnable) - 1; i >= 0; i-- {
			if wx.runnable[i] != s && sameFrame(s, wx.runnable[i]) {
				ws.mergeInto(s, wx.runnable[i])
				wx.runnable[i] = wx.runnable[len(wx.runnable)-1]
				wx.runnable = wx.runnable[:len(wx.runnable)-1]
			}
		}
		watermark := wx.watermark(s)

		ctl, err := wx.runStrand(s, watermark)
		if err != nil {
			return false, err
		}
		switch ctl {
		case ctlSplit:
			wx.runnable = append(wx.runnable, wx.split)
			wx.split = nil
		case ctlSync:
			wx.runnable = removeStrand(wx.runnable, s)
			wx.waiting = append(wx.waiting, s)
		case ctlExit:
			wc.ExitLanes(len(s.lanes))
			wx.runnable = removeStrand(wx.runnable, s)
			ws.freeStrand(s)
		}
	}
}

// before reports whether strand a runs before b: the warp's structured
// order, in which a strand inside a call comes after the call
// instruction and before the instruction after it, frame by frame; ties
// go to the lower first lane, for determinism. Running the earliest
// strand first is what brings split lanes back together before either
// side issues past the join (and into the next loop trip, or on from a
// call the other side is still in).
func before(a, b *strand) bool {
	n := min(len(a.stack), len(b.stack))
	for i := 0; i < n; i++ {
		if x, y := a.stack[i].pc, b.stack[i].pc; x != y {
			return x < y
		}
	}
	if ka, kb := a.posAt(n), b.posAt(n); ka != kb {
		return ka < kb
	}
	return a.lanes[0] < b.lanes[0]
}

// posAt is the strand's position in its frame at call depth d: twice the
// pc there, plus one inside a call (the frame's return pc is the call's
// pc plus one).
func (s *strand) posAt(d int) int64 {
	if d < len(s.stack) {
		return 2*int64(s.stack[d].pc) - 1
	}
	return 2 * int64(s.pc)
}

// watermark is the pc in s's frame that s, the earliest strand, must not
// run past before the scheduler looks again: the nearest position a later
// strand of the same frame holds there. A later strand that is inside a
// call from s's frame holds the call's return pc. Strands that part from s
// in an outer frame are met after s returns, and a strand yields when its
// frame changes.
func (wx *warpExec) watermark(s *strand) int32 {
	w := int32(math.MaxInt32)
	d := len(s.stack)
	for _, o := range wx.runnable {
		if o == s || len(o.stack) < d || !samePath(o, s, d) {
			continue
		}
		pc := o.pc
		if len(o.stack) > d {
			pc = o.stack[d].pc
		}
		if pc > s.pc && pc < w {
			w = pc
		}
	}
	return w
}

// samePath reports whether a and b share their first d frames' positions.
func samePath(a, b *strand, d int) bool {
	for i := 0; i < d; i++ {
		if a.stack[i].pc != b.stack[i].pc {
			return false
		}
	}
	return true
}

// frameChanged is the control outcome of a call or return: with other
// strands runnable, the running strand's watermark belonged to the frame
// it left, so it yields for the scheduler to look again.
func (wx *warpExec) frameChanged() uint8 {
	if len(wx.runnable) > 1 {
		return ctlYield
	}
	return ctlNone
}

func removeStrand(list []*strand, s *strand) []*strand {
	for i, o := range list {
		if o == s {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// runStrand executes s until it yields: watermark reached, divergent
// split, barrier park, kernel return, or a trap (returned as the error).
func (wx *warpExec) runStrand(s *strand, watermark int32) (uint8, error) {
	wc := wx.wc
	code := wx.wp.code
	maxSteps := wx.maxSteps
	for {
		if s.pc >= watermark {
			return ctlYield, nil
		}
		w := &code[s.pc]
		s.pc++
		if w.fuse == wPlain {
			if w.steps1 != 0 {
				s.steps += int64(w.steps1)
				if s.steps+s.maxBase > maxSteps {
					return 0, ErrStepLimit
				}
			}
			if w.alu1 != 0 {
				wc.CountALU(int(w.alu1) * len(s.lanes))
			}
			ctl, err := wx.execInstr(s, &w.in)
			if err != nil {
				return 0, err
			}
			if ctl != ctlNone {
				return ctl, nil
			}
			continue
		}
		// Fused pair: when no budget trap can fire inside, charge both
		// components at once and run the combined fast path.
		total := int64(w.steps1) + int64(w.steps2)
		if s.steps+total+s.maxBase <= maxSteps {
			s.steps += total
			if a := int(w.alu1) + int(w.alu2); a != 0 {
				wc.CountALU(a * len(s.lanes))
			}
			ctl, err := wx.execFused(s, w)
			if err != nil {
				return 0, err
			}
			if ctl != ctlNone {
				return ctl, nil
			}
			continue
		}
		// Near the budget: replay the components one at a time so the trap
		// fires between the same two effects as the per-thread engines.
		if w.steps1 != 0 {
			s.steps += int64(w.steps1)
			if s.steps+s.maxBase > maxSteps {
				return 0, ErrStepLimit
			}
		}
		if w.alu1 != 0 {
			wc.CountALU(int(w.alu1) * len(s.lanes))
		}
		if _, err := wx.execInstr(s, &w.in); err != nil {
			return 0, err
		}
		if w.steps2 != 0 {
			s.steps += int64(w.steps2)
			if s.steps+s.maxBase > maxSteps {
				return 0, ErrStepLimit
			}
		}
		if w.alu2 != 0 {
			wc.CountALU(int(w.alu2) * len(s.lanes))
		}
		ctl, err := wx.execInstr(s, &w.in2)
		if err != nil {
			return 0, err
		}
		if ctl != ctlNone {
			return ctl, nil
		}
	}
}

// execFused runs a fused pair's combined fast path. Both components'
// register writes are preserved, so fusion is observationally identical
// to the unfused sequence.
func (wx *warpExec) execFused(s *strand, w *winstr) (uint8, error) {
	ws := wx.ws
	W := ws.W
	switch w.fuse {
	case wFMA:
		floats := ws.floats
		mb := int(s.bF+w.in.b) * W
		mc := int(s.bF+w.in.c) * W
		da := int(s.bF+w.in2.a) * W
		xb := int(s.bF+w.in2.b) * W
		yc := int(s.bF+w.in2.c) * W
		if w.dead {
			aliasB := w.in2.b == w.in.a
			aliasC := w.in2.c == w.in.a
			if len(s.lanes) == W && aliasB != aliasC {
				d, p, q := floats[da:da+W], floats[mb:mb+W], floats[mc:mc+W]
				if aliasB {
					y := floats[yc : yc+W]
					for i := range d {
						d[i] = round32(round32(p[i]*q[i]) + y[i])
					}
				} else {
					x := floats[xb : xb+W]
					for i := range d {
						d[i] = round32(x[i] + round32(p[i]*q[i]))
					}
				}
				return ctlNone, nil
			}
			for _, l := range s.lanes {
				li := int(l)
				m := round32(floats[mb+li] * floats[mc+li])
				x, y := floats[xb+li], floats[yc+li]
				if aliasB {
					x = m
				}
				if aliasC {
					y = m
				}
				floats[da+li] = round32(x + y)
			}
			return ctlNone, nil
		}
		ta := int(s.bF+w.in.a) * W
		for _, l := range s.lanes {
			li := int(l)
			floats[ta+li] = round32(floats[mb+li] * floats[mc+li])
			floats[da+li] = round32(floats[xb+li] + floats[yc+li])
		}
		return ctlNone, nil
	case wLoadIdx, wStoreIdx:
		if !w.dead {
			if _, err := wx.execInstr(s, &w.in); err != nil {
				return 0, err
			}
			return wx.execInstr(s, &w.in2)
		}
		// The formed pointer is consumed only by this access, so it is never
		// materialized: each lane's address arithmetic feeds the issue.
		m := memOperand{pb: int(s.bP+w.in.b) * W, ic: int(s.bI+w.in.c) * W, elem: int(w.in.k), indexed: true}
		return ctlNone, wx.access(s, s.lanes, &w.in2, m, w.fuse == wStoreIdx)
	case wCmpJZ:
		if w.dead {
			return wx.cmpJZFast(s, w)
		}
		if _, err := wx.execInstr(s, &w.in); err != nil {
			return 0, err
		}
		return wx.execInstr(s, &w.in2)
	default: // wAddKJmp: charge batching is the win; reuse the plain ops
		if _, err := wx.execInstr(s, &w.in); err != nil {
			return 0, err
		}
		return wx.execInstr(s, &w.in2)
	}
}

// cmpJZFast is the dead-temp path of a fused compare-and-branch: the
// compare result register is consumed only by the jump, so each lane's
// branch direction is computed directly from the compared operands.
func (wx *warpExec) cmpJZFast(s *strand, w *winstr) (uint8, error) {
	ws := wx.ws
	W := ws.W
	ints, floats := ws.ints, ws.floats
	lanes := s.lanes
	wx.wc.CountBranches(len(lanes))
	wantTaken := w.in2.op == opJNZ
	if len(lanes) == W && w.in.op != opCmpU {
		cond := ws.cond[:W]
		if w.in.op == opCmpI {
			b, c := int(s.bI+w.in.b)*W, int(s.bI+w.in.c)*W
			cmpRow(w.in.aux, cond, ints[b:b+W], ints[c:c+W])
		} else {
			b, c := int(s.bF+w.in.b)*W, int(s.bF+w.in.c)*W
			cmpRow(w.in.aux, cond, floats[b:b+W], floats[c:c+W])
		}
		return wx.branchFull(s, cond, wantTaken, w.in2.aux)
	}
	jb, sb := wx.jumpBuf[:0], wx.stayBuf[:0]
	switch w.in.op {
	case opCmpI:
		b, c := int(s.bI+w.in.b)*W, int(s.bI+w.in.c)*W
		for _, l := range lanes {
			if (cmpIRes(w.in.aux, ints[b+int(l)], ints[c+int(l)]) != 0) == wantTaken {
				jb = append(jb, l)
			} else {
				sb = append(sb, l)
			}
		}
	case opCmpU:
		b, c := int(s.bI+w.in.b)*W, int(s.bI+w.in.c)*W
		for _, l := range lanes {
			if (cmpURes(w.in.aux, uint32(ints[b+int(l)]), uint32(ints[c+int(l)])) != 0) == wantTaken {
				jb = append(jb, l)
			} else {
				sb = append(sb, l)
			}
		}
	default: // opCmpF
		b, c := int(s.bF+w.in.b)*W, int(s.bF+w.in.c)*W
		for _, l := range lanes {
			if (cmpFRes(w.in.aux, floats[b+int(l)], floats[c+int(l)]) != 0) == wantTaken {
				jb = append(jb, l)
			} else {
				sb = append(sb, l)
			}
		}
	}
	wx.jumpBuf, wx.stayBuf = jb, sb
	return wx.finishBranch(s, w.in2.aux)
}

// finishBranch resolves a branch whose lanes have been partitioned into
// wx.jumpBuf (taken) and wx.stayBuf (fall-through). A uniform branch is a
// plain jump; a divergent one splits the strand: the fall-through lanes
// stay in s and the taken lanes continue in a fresh strand at target.
func (wx *warpExec) finishBranch(s *strand, target int32) (uint8, error) {
	jb, sb := wx.jumpBuf, wx.stayBuf
	if len(sb) == 0 { // uniform taken
		s.pc = target
		return ctlNone, nil
	}
	if len(jb) == 0 { // uniform not-taken
		return ctlNone, nil
	}
	ws := wx.ws
	ns := ws.newStrand()
	ns.pc = target
	ns.fn, ns.bI, ns.bF, ns.bP, ns.depth = s.fn, s.bI, s.bF, s.bP, s.depth
	ns.stack = append(ns.stack[:0], s.stack...)
	ns.steps = s.steps
	for _, l := range jb {
		ns.base[l] = s.base[l]
	}
	ns.lanes = append(ns.lanes[:0], jb...)
	ns.recomputeMaxBase()
	s.lanes = append(s.lanes[:0], sb...)
	s.recomputeMaxBase()
	wx.split = ns
	return ctlSplit, nil
}

// branchFull resolves a branch of a full strand on its lanes' condition
// row cond (nonzero is true). A uniform branch — the common case, found by
// a scan that stops at the first lane that disagrees with lane 0 — jumps or
// falls through at once; a divergent one partitions the lanes, as the
// lane-list path does, and splits.
func (wx *warpExec) branchFull(s *strand, cond []int64, wantTaken bool, target int32) (uint8, error) {
	first := cond[0] != 0
	for _, v := range cond[1:] {
		if (v != 0) != first {
			jb, sb := wx.jumpBuf[:0], wx.stayBuf[:0]
			for l, v := range cond {
				if (v != 0) == wantTaken {
					jb = append(jb, int32(l))
				} else {
					sb = append(sb, int32(l))
				}
			}
			wx.jumpBuf, wx.stayBuf = jb, sb
			return wx.finishBranch(s, target)
		}
	}
	if first == wantTaken {
		s.pc = target
	}
	return ctlNone, nil
}

// memOperand says where a memory instruction's lanes point: lane l at
// ptrs[pb+l], advanced by ints[ic+l]*elem bytes when indexed (a fused
// indexed access, whose formed pointer is never materialized).
type memOperand struct {
	pb, ic, elem int
	indexed      bool
}

// access issues memory instruction in — a load, or a store when store is
// set — for lanes at operand m, in one warp-wide issue.
func (wx *warpExec) access(s *strand, lanes []int32, in *instr, m memOperand, store bool) error {
	if space, ok := wx.gather(lanes, m); ok && space != SpaceLocal {
		_, err := wx.issue(s, lanes, in, space, store)
		return err
	}
	return wx.accessSplit(s, lanes, in, m, store)
}

// gather collects the addresses of lanes at operand m, global ones into
// ws.addrs and shared or constant element indices into ws.idxs, and
// returns their memory space; ok is false when they address more than one.
func (wx *warpExec) gather(lanes []int32, m memOperand) (space MemSpace, ok bool) {
	ws := wx.ws
	ptrs, ints := ws.ptrs, ws.ints
	if len(lanes) == ws.W {
		return wx.gatherFull(m)
	}
	space = ptrs[m.pb+int(lanes[0])].Space
	for i, l := range lanes {
		p := &ptrs[m.pb+int(l)]
		if p.Space != space {
			return space, false
		}
		off := 0
		if m.indexed {
			off = int(ints[m.ic+int(l)]) * m.elem
		}
		if space == SpaceGlobal {
			ws.addrs[i] = p.Glob.Offset(off)
		} else {
			ws.idxs[i] = (p.Off + off) / 4
		}
	}
	return space, true
}

// gatherFull is gather for a full strand: lane l is at index l of the
// pointer row, the index row and the operand arrays.
func (wx *warpExec) gatherFull(m memOperand) (space MemSpace, ok bool) {
	ws := wx.ws
	ps := ws.ptrs[m.pb : m.pb+ws.W]
	addrs, idxs := ws.addrs[:len(ps)], ws.idxs[:len(ps)]
	var idx []int64
	if m.indexed {
		idx = ws.ints[m.ic : m.ic+len(ps)]
	}
	space = ps[0].Space
	for i := range ps {
		p := &ps[i]
		if p.Space != space {
			return space, false
		}
		off := 0
		if m.indexed {
			off = int(idx[i]) * m.elem
		}
		if space == SpaceGlobal {
			addrs[i] = p.Glob.Offset(off)
		} else {
			idxs[i] = (p.Off + off) / 4
		}
	}
	return space, true
}

// issue runs in for lanes that all address space (not local), whose
// operands gather collected, and returns how many lanes completed. A load
// writes what the completed lanes read to in's destination.
func (wx *warpExec) issue(s *strand, lanes []int32, in *instr, space MemSpace, store bool) (done int, err error) {
	ws, wc := wx.ws, wx.wc
	n := len(lanes)
	words := ws.words[:n]
	if store {
		wx.storeWords(s, lanes, in, words)
	}
	size := in.t.Size()
	switch {
	case space == SpaceGlobal && size != 4 && size != 1:
		return 0, badAccess(store, size, space)
	case space == SpaceGlobal && store:
		done, err = wc.StoreGlobal(size, ws.addrs[:n], words)
	case space == SpaceGlobal:
		done, err = wc.LoadGlobal(size, ws.addrs[:n], words)
	case space == SpaceShared && store:
		done, err = wc.StoreShared(ws.idxs[:n], words)
	case space == SpaceShared:
		done, err = wc.LoadShared(ws.idxs[:n], words)
	case store:
		return 0, ErrConstStore
	default:
		for ; done < n; done++ {
			var w int32
			if w, err = wc.ConstLoadInt32(ws.idxs[done]); err != nil {
				break
			}
			words[done] = uint32(w)
		}
	}
	if !store {
		wx.setLoaded(s, lanes[:done], in, words)
	}
	return done, err
}

// accessSplit runs in for lanes that address more than one memory space,
// or local memory: the lanes of each space issue as one instruction, local
// lanes one at a time, and of the lanes that trap the lowest reports. (A
// store's lanes in one space may then complete past a lower lane of
// another that traps: the lockstep boundary of a mid-kernel trap.)
func (wx *warpExec) accessSplit(s *strand, lanes []int32, in *instr, m memOperand, store bool) error {
	var groups [SpaceLocal + 1][maxWarpLanes]int32
	var sizes [SpaceLocal + 1]int
	for _, l := range lanes {
		sp := wx.ws.ptrs[m.pb+int(l)].Space
		groups[sp][sizes[sp]] = l
		sizes[sp]++
	}
	var first error
	firstLane := int32(maxWarpLanes)
	for sp := range groups {
		group := groups[sp][:sizes[sp]]
		if len(group) == 0 {
			continue
		}
		var done int
		var err error
		if MemSpace(sp) == SpaceLocal {
			done, err = wx.accessLocal(s, group, in, m, store)
		} else {
			wx.gather(group, m)
			done, err = wx.issue(s, group, in, MemSpace(sp), store)
		}
		if err != nil && group[done] < firstLane {
			first, firstLane = err, group[done]
		}
	}
	return first
}

// accessLocal runs in lane by lane for lanes addressing their local arrays.
func (wx *warpExec) accessLocal(s *strand, lanes []int32, in *instr, m memOperand, store bool) (int, error) {
	ws := wx.ws
	W := ws.W
	for i, l := range lanes {
		li := int(l)
		p := ws.ptrs[m.pb+li]
		if m.indexed {
			p = p.offset(int(ws.ints[m.ic+li]) * m.elem)
		}
		slot, err := localSlot(p)
		if err != nil {
			return i, err
		}
		if !store {
			switch in.kind {
			case bankI:
				ws.ints[int(s.bI+in.a)*W+li] = slot.I
			case bankF:
				ws.floats[int(s.bF+in.a)*W+li] = slot.F
			default:
				ws.ptrs[int(s.bP+in.a)*W+li] = slot.P
			}
			continue
		}
		switch in.op {
		case opStoreF:
			*slot = Value{T: in.t, F: ws.floats[int(s.bF+in.c)*W+li]}
		case opStoreP:
			*slot = Value{T: in.t, P: ws.ptrs[int(s.bP+in.c)*W+li]}
		default:
			*slot = Value{T: in.t, I: ws.ints[int(s.bI+in.c)*W+li]}
		}
	}
	return len(lanes), nil
}

// storeWords fills words with the value each lane stores, as the 32-bit
// word of in's type the tree walker's store writes: a float register
// stored as an integer (or the reverse), and a pointer, store zero.
func (wx *warpExec) storeWords(s *strand, lanes []int32, in *instr, words []uint32) {
	ws := wx.ws
	W := ws.W
	float := in.t.Kind == KFloat
	switch {
	case in.op == opStoreF && float:
		c := int(s.bF+in.c) * W
		for i, l := range lanes {
			words[i] = math.Float32bits(float32(ws.floats[c+int(l)]))
		}
	case in.op == opStoreI && !float:
		c := int(s.bI+in.c) * W
		for i, l := range lanes {
			words[i] = uint32(int32(ws.ints[c+int(l)]))
		}
	default:
		clear(words)
	}
}

// setLoaded writes the words lanes loaded to in's destination, as the tree
// walker's load converts them: a float for a float type, else the integer
// truncated to the type; the other banks read zero.
func (wx *warpExec) setLoaded(s *strand, lanes []int32, in *instr, words []uint32) {
	ws := wx.ws
	W := ws.W
	float := in.t.Kind == KFloat
	switch in.kind {
	case bankF:
		d := int(s.bF+in.a) * W
		if float && len(lanes) == W {
			row := ws.floats[d : d+W]
			words := words[:len(row)]
			for i := range row {
				row[i] = float64(math.Float32frombits(words[i]))
			}
			return
		}
		for i, l := range lanes {
			f := 0.0
			if float {
				f = float64(math.Float32frombits(words[i]))
			}
			ws.floats[d+int(l)] = f
		}
	case bankI:
		d := int(s.bI+in.a) * W
		if in.t.Kind == KInt && len(lanes) == W {
			row := ws.ints[d : d+W]
			words := words[:len(row)]
			for i := range row {
				row[i] = int64(int32(words[i]))
			}
			return
		}
		for i, l := range lanes {
			var v int64
			if !float {
				v = truncInt(in.t, int64(int32(words[i])))
			}
			ws.ints[d+int(l)] = v
		}
	default:
		d := int(s.bP+in.a) * W
		for _, l := range lanes {
			ws.ptrs[d+int(l)] = Pointer{}
		}
	}
}

// execInstr applies one bytecode instruction across the active lanes of s.
// Step and ALU charges are the caller's responsibility; op-internal
// charges (special-function, branch, barrier) happen here, batched into
// the warp accumulator.
func (wx *warpExec) execInstr(s *strand, in *instr) (uint8, error) {
	ws := wx.ws
	W := ws.W
	ints, floats, ptrs := ws.ints, ws.floats, ws.ptrs
	lanes := s.lanes
	full := len(lanes) == W
	switch in.op {
	case opStep:
	case opLoadKI:
		a := int(s.bI+in.a) * W
		if full {
			fill(ints[a:a+W], in.k)
			break
		}
		for _, l := range lanes {
			ints[a+int(l)] = in.k
		}
	case opLoadKF:
		a := int(s.bF+in.a) * W
		for _, l := range lanes {
			floats[a+int(l)] = in.f
		}
	case opMovI:
		a, b := int(s.bI+in.a)*W, int(s.bI+in.b)*W
		if full {
			copy(ints[a:a+W], ints[b:b+W])
			break
		}
		for _, l := range lanes {
			ints[a+int(l)] = ints[b+int(l)]
		}
	case opMovF:
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		if full {
			copy(floats[a:a+W], floats[b:b+W])
			break
		}
		for _, l := range lanes {
			floats[a+int(l)] = floats[b+int(l)]
		}
	case opMovP:
		a, b := int(s.bP+in.a)*W, int(s.bP+in.b)*W
		for _, l := range lanes {
			ptrs[a+int(l)] = ptrs[b+int(l)]
		}
	case opZeroP:
		a := int(s.bP+in.a) * W
		for _, l := range lanes {
			ptrs[a+int(l)] = Pointer{}
		}
	case opLeaShared:
		a := int(s.bP+in.a) * W
		if full {
			fill(ptrs[a:a+W], Pointer{Space: SpaceShared, Off: int(in.k)})
			break
		}
		for _, l := range lanes {
			ptrs[a+int(l)] = Pointer{Space: SpaceShared, Off: int(in.k)}
		}
	case opLeaConst:
		a := int(s.bP+in.a) * W
		if full {
			fill(ptrs[a:a+W], Pointer{Space: SpaceConst, Off: int(in.k)})
			break
		}
		for _, l := range lanes {
			ptrs[a+int(l)] = Pointer{Space: SpaceConst, Off: int(in.k)}
		}
	case opAllocLocal:
		a := int(s.bP+in.a) * W
		t := in.t
		n := t.Size() / t.ElemBase().Size()
		for _, l := range lanes {
			buf := &localBuf{vals: make([]Value, n), elem: t.ElemBase()}
			for i := range buf.vals {
				buf.vals[i] = Value{T: buf.elem}
			}
			ptrs[a+int(l)] = Pointer{Space: SpaceLocal, Elem: t, Local: buf}
		}
	case opThreadDim:
		a := int(s.bI+in.a) * W
		if full {
			d, k := ints[a:a+W], int(in.aux)
			dims := ws.dims[:len(d)]
			for l := range d {
				d[l] = int64(dims[l][k])
			}
			break
		}
		for _, l := range lanes {
			ints[a+int(l)] = int64(ws.dims[l][in.aux])
		}
	case opWorkItem:
		a, b := int(s.bI+in.a)*W, int(s.bI+in.b)*W
		for _, l := range lanes {
			li := int(l)
			dim := ints[b+li]
			dims := &ws.dims[l]
			var v int
			switch in.aux {
			case wiGlobalID:
				v = dimPick(dims, 1, dim)*dimPick(dims, 2, dim) + dimPick(dims, 0, dim)
			case wiLocalID:
				v = dimPick(dims, 0, dim)
			case wiGroupID:
				v = dimPick(dims, 1, dim)
			case wiLocalSize:
				v = dimPick(dims, 2, dim)
			case wiNumGroups:
				v = dimPick(dims, 3, dim)
			case wiGlobalSize:
				v = dimPick(dims, 3, dim) * dimPick(dims, 2, dim)
			}
			ints[a+li] = int64(int32(v))
		}
	case opI2F:
		a, b := int(s.bF+in.a)*W, int(s.bI+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = float64(float32(ints[b+int(l)]))
		}
	case opI2FRaw:
		a, b := int(s.bF+in.a)*W, int(s.bI+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = float64(ints[b+int(l)])
		}
	case opF2I:
		a, b := int(s.bI+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, int64(floats[b+int(l)]))
		}
	case opF2IRaw:
		a, b := int(s.bI+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			ints[a+int(l)] = int64(floats[b+int(l)])
		}
	case opF2F:
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(floats[b+int(l)])
		}
	case opTruncI:
		a, b := int(s.bI+in.a)*W, int(s.bI+in.b)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)])
		}
	case opAddI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		if full && in.t.Kind == KInt {
			d, x, y := ints[a:a+W], ints[b:b+W], ints[c:c+W]
			for i := range d {
				d[i] = int64(int32(x[i] + y[i]))
			}
			break
		}
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)]+ints[c+int(l)])
		}
	case opSubI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		if full && in.t.Kind == KInt {
			d, x, y := ints[a:a+W], ints[b:b+W], ints[c:c+W]
			for i := range d {
				d[i] = int64(int32(x[i] - y[i]))
			}
			break
		}
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)]-ints[c+int(l)])
		}
	case opMulI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		if full && in.t.Kind == KInt {
			d, x, y := ints[a:a+W], ints[b:b+W], ints[c:c+W]
			for i := range d {
				d[i] = int64(int32(x[i] * y[i]))
			}
			break
		}
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)]*ints[c+int(l)])
		}
	case opDivI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		if full && in.t.Kind == KInt {
			d, x, y := ints[a:a+W], ints[b:b+W], ints[c:c+W]
			for i := range d {
				if y[i] == 0 {
					return 0, ErrDivByZero
				}
				d[i] = int64(int32(x[i] / y[i]))
			}
			break
		}
		for _, l := range lanes {
			cv := ints[c+int(l)]
			if cv == 0 {
				return 0, ErrDivByZero
			}
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)]/cv)
		}
	case opModI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			cv := ints[c+int(l)]
			if cv == 0 {
				return 0, ErrDivByZero
			}
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)]%cv)
		}
	case opDivU:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			cv := uint32(ints[c+int(l)])
			if cv == 0 {
				return 0, ErrDivByZero
			}
			ints[a+int(l)] = truncInt(in.t, int64(uint32(ints[b+int(l)])/cv))
		}
	case opModU:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			cv := uint32(ints[c+int(l)])
			if cv == 0 {
				return 0, ErrDivByZero
			}
			ints[a+int(l)] = truncInt(in.t, int64(uint32(ints[b+int(l)])%cv))
		}
	case opAndI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)]&ints[c+int(l)])
		}
	case opOrI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)]|ints[c+int(l)])
		}
	case opXorI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)]^ints[c+int(l)])
		}
	case opShlI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)]<<(uint(ints[c+int(l)])&31))
		}
	case opShrI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, int64(int32(ints[b+int(l)])>>(uint(ints[c+int(l)])&31)))
		}
	case opShrU:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, int64(uint32(ints[b+int(l)])>>(uint(ints[c+int(l)])&31)))
		}
	case opNegI:
		a, b := int(s.bI+in.a)*W, int(s.bI+in.b)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, -ints[b+int(l)])
		}
	case opNotI:
		a, b := int(s.bI+in.a)*W, int(s.bI+in.b)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, ^ints[b+int(l)])
		}
	case opAddKI:
		a, b := int(s.bI+in.a)*W, int(s.bI+in.b)*W
		if full && in.t.Kind == KInt {
			d, x := ints[a:a+W], ints[b:b+W]
			for i := range d {
				d[i] = int64(int32(x[i] + in.k))
			}
			break
		}
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(in.t, ints[b+int(l)]+in.k)
		}
	case opMinI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			x, y := ints[b+int(l)], ints[c+int(l)]
			if y < x {
				x = y
			}
			ints[a+int(l)] = truncInt(in.t, x)
		}
	case opMaxI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			x, y := ints[b+int(l)], ints[c+int(l)]
			if y > x {
				x = y
			}
			ints[a+int(l)] = truncInt(in.t, x)
		}
	case opAbsI:
		a, b := int(s.bI+in.a)*W, int(s.bI+in.b)*W
		for _, l := range lanes {
			v := ints[b+int(l)]
			if v < 0 {
				v = -v
			}
			ints[a+int(l)] = truncInt(TypeInt, v)
		}
	case opLNotI:
		a, b := int(s.bI+in.a)*W, int(s.bI+in.b)*W
		for _, l := range lanes {
			if ints[b+int(l)] != 0 {
				ints[a+int(l)] = 0
			} else {
				ints[a+int(l)] = 1
			}
		}
	case opLNotF:
		a, b := int(s.bI+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			if floats[b+int(l)] != 0 {
				ints[a+int(l)] = 0
			} else {
				ints[a+int(l)] = 1
			}
		}
	case opLNotP:
		a, b := int(s.bI+in.a)*W, int(s.bP+in.b)*W
		for _, l := range lanes {
			if ptrTruthy(ptrs[b+int(l)]) {
				ints[a+int(l)] = 0
			} else {
				ints[a+int(l)] = 1
			}
		}
	case opTruthyI:
		a, b := int(s.bI+in.a)*W, int(s.bI+in.b)*W
		for _, l := range lanes {
			if ints[b+int(l)] != 0 {
				ints[a+int(l)] = 1
			} else {
				ints[a+int(l)] = 0
			}
		}
	case opTruthyF:
		a, b := int(s.bI+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			if floats[b+int(l)] != 0 {
				ints[a+int(l)] = 1
			} else {
				ints[a+int(l)] = 0
			}
		}
	case opTruthyP:
		a, b := int(s.bI+in.a)*W, int(s.bP+in.b)*W
		for _, l := range lanes {
			if ptrTruthy(ptrs[b+int(l)]) {
				ints[a+int(l)] = 1
			} else {
				ints[a+int(l)] = 0
			}
		}
	case opAddF:
		a, b, c := int(s.bF+in.a)*W, int(s.bF+in.b)*W, int(s.bF+in.c)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(floats[b+int(l)] + floats[c+int(l)])
		}
	case opSubF:
		a, b, c := int(s.bF+in.a)*W, int(s.bF+in.b)*W, int(s.bF+in.c)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(floats[b+int(l)] - floats[c+int(l)])
		}
	case opMulF:
		a, b, c := int(s.bF+in.a)*W, int(s.bF+in.b)*W, int(s.bF+in.c)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(floats[b+int(l)] * floats[c+int(l)])
		}
	case opDivF:
		a, b, c := int(s.bF+in.a)*W, int(s.bF+in.b)*W, int(s.bF+in.c)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(floats[b+int(l)] / floats[c+int(l)])
		}
	case opNegF:
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(-floats[b+int(l)])
		}
	case opAddKF:
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(floats[b+int(l)] + in.f)
		}
	case opMinF:
		a, b, c := int(s.bF+in.a)*W, int(s.bF+in.b)*W, int(s.bF+in.c)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Min(floats[b+int(l)], floats[c+int(l)]))
		}
	case opMaxF:
		a, b, c := int(s.bF+in.a)*W, int(s.bF+in.b)*W, int(s.bF+in.c)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Max(floats[b+int(l)], floats[c+int(l)]))
		}
	case opFAbsF:
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Abs(floats[b+int(l)]))
		}
	case opFloor:
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Floor(floats[b+int(l)]))
		}
	case opCeil:
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Ceil(floats[b+int(l)]))
		}
	case opSqrt:
		wx.wc.CountSpecial(len(lanes))
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Sqrt(floats[b+int(l)]))
		}
	case opRsqrt:
		wx.wc.CountSpecial(len(lanes))
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(1 / math.Sqrt(floats[b+int(l)]))
		}
	case opExp:
		wx.wc.CountSpecial(len(lanes))
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Exp(floats[b+int(l)]))
		}
	case opLog:
		wx.wc.CountSpecial(len(lanes))
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Log(floats[b+int(l)]))
		}
	case opPow:
		wx.wc.CountSpecial(len(lanes))
		a, b, c := int(s.bF+in.a)*W, int(s.bF+in.b)*W, int(s.bF+in.c)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Pow(floats[b+int(l)], floats[c+int(l)]))
		}
	case opSin:
		wx.wc.CountSpecial(len(lanes))
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Sin(floats[b+int(l)]))
		}
	case opCos:
		wx.wc.CountSpecial(len(lanes))
		a, b := int(s.bF+in.a)*W, int(s.bF+in.b)*W
		for _, l := range lanes {
			floats[a+int(l)] = round32(math.Cos(floats[b+int(l)]))
		}
	case opCmpI:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		if full {
			cmpRow(in.aux, ints[a:a+W], ints[b:b+W], ints[c:c+W])
			break
		}
		for _, l := range lanes {
			ints[a+int(l)] = cmpIRes(in.aux, ints[b+int(l)], ints[c+int(l)])
		}
	case opCmpU:
		a, b, c := int(s.bI+in.a)*W, int(s.bI+in.b)*W, int(s.bI+in.c)*W
		for _, l := range lanes {
			ints[a+int(l)] = cmpURes(in.aux, uint32(ints[b+int(l)]), uint32(ints[c+int(l)]))
		}
	case opCmpF:
		a, b, c := int(s.bI+in.a)*W, int(s.bF+in.b)*W, int(s.bF+in.c)*W
		for _, l := range lanes {
			ints[a+int(l)] = cmpFRes(in.aux, floats[b+int(l)], floats[c+int(l)])
		}
	case opCmpP:
		a, b, c := int(s.bI+in.a)*W, int(s.bP+in.b)*W, int(s.bP+in.c)*W
		for _, l := range lanes {
			ints[a+int(l)] = cmpPRes(in.aux, ptrs[b+int(l)], ptrs[c+int(l)])
		}
	case opPAdd:
		// Open-coded Pointer.offset: writing through a destination pointer
		// copies the ~48-byte struct once instead of twice (arg + return),
		// and this is the hottest pointer op (2-D indexing leaves one
		// unfused opPAdd per access for the row pointer).
		a, b, c := int(s.bP+in.a)*W, int(s.bP+in.b)*W, int(s.bI+in.c)*W
		if full {
			d, x, idx := ptrs[a:a+W], ptrs[b:b+W], ints[c:c+W]
			for i := range d {
				n := int(idx[i]) * int(in.k)
				p := &d[i]
				*p = x[i]
				if p.Space == SpaceGlobal {
					p.Glob = p.Glob.Offset(n)
				} else {
					p.Off += n
				}
			}
			break
		}
		for _, l := range lanes {
			li := int(l)
			n := int(ints[c+li]) * int(in.k)
			p := &ptrs[a+li]
			*p = ptrs[b+li]
			if p.Space == SpaceGlobal {
				p.Glob = p.Glob.Offset(n)
			} else {
				p.Off += n
			}
		}
	case opPAddK:
		a, b := int(s.bP+in.a)*W, int(s.bP+in.b)*W
		for _, l := range lanes {
			li := int(l)
			p := &ptrs[a+li]
			*p = ptrs[b+li]
			if p.Space == SpaceGlobal {
				p.Glob = p.Glob.Offset(int(in.k))
			} else {
				p.Off += int(in.k)
			}
		}
	case opPDiff:
		a, b, c := int(s.bI+in.a)*W, int(s.bP+in.b)*W, int(s.bP+in.c)*W
		for _, l := range lanes {
			ints[a+int(l)] = truncInt(TypeInt, int64(ptrDelta(ptrs[b+int(l)], ptrs[c+int(l)])/int(in.k)))
		}
	case opLoad:
		if err := wx.access(s, lanes, in, memOperand{pb: int(s.bP+in.b) * W}, false); err != nil {
			return 0, err
		}
	case opStoreI, opStoreF, opStoreP:
		if err := wx.access(s, lanes, in, memOperand{pb: int(s.bP+in.b) * W}, true); err != nil {
			return 0, err
		}
	case opJmp:
		s.pc = in.aux
	case opJZ, opJNZ:
		wx.wc.CountBranches(len(lanes))
		jb, sb := wx.jumpBuf[:0], wx.stayBuf[:0]
		wantTaken := in.op == opJNZ
		switch in.kind {
		case bankI:
			b := int(s.bI+in.b) * W
			if full {
				return wx.branchFull(s, ints[b:b+W], wantTaken, in.aux)
			}
			for _, l := range lanes {
				if (ints[b+int(l)] != 0) == wantTaken {
					jb = append(jb, l)
				} else {
					sb = append(sb, l)
				}
			}
		case bankF:
			b := int(s.bF+in.b) * W
			for _, l := range lanes {
				if (floats[b+int(l)] != 0) == wantTaken {
					jb = append(jb, l)
				} else {
					sb = append(sb, l)
				}
			}
		default:
			b := int(s.bP+in.b) * W
			for _, l := range lanes {
				if ptrTruthy(ptrs[b+int(l)]) == wantTaken {
					jb = append(jb, l)
				} else {
					sb = append(sb, l)
				}
			}
		}
		wx.jumpBuf, wx.stayBuf = jb, sb
		return wx.finishBranch(s, in.aux)
	case opCheckDepth:
		if s.depth >= maxCallDepth {
			return 0, ErrCallDepth
		}
	case opCall:
		cs := wx.wp.bc.calls[in.aux]
		tgt := cs.target
		nbI, nbF, nbP := s.bI+s.fn.numI, s.bF+s.fn.numF, s.bP+s.fn.numP
		ws.ints = grow(ws.ints, int(nbI+tgt.numI)*W)
		ws.floats = grow(ws.floats, int(nbF+tgt.numF)*W)
		ws.ptrs = grow(ws.ptrs, int(nbP+tgt.numP)*W)
		ints, floats, ptrs = ws.ints, ws.floats, ws.ptrs
		for _, m := range cs.moves {
			switch m.bank {
			case bankI:
				d, src := int(nbI+m.dst)*W, int(s.bI+m.src)*W
				for _, l := range lanes {
					ints[d+int(l)] = ints[src+int(l)]
				}
			case bankF:
				d, src := int(nbF+m.dst)*W, int(s.bF+m.src)*W
				for _, l := range lanes {
					floats[d+int(l)] = floats[src+int(l)]
				}
			default:
				d, src := int(nbP+m.dst)*W, int(s.bP+m.src)*W
				for _, l := range lanes {
					ptrs[d+int(l)] = ptrs[src+int(l)]
				}
			}
		}
		var dstAbs int32
		switch cs.dst.bank {
		case bankI:
			dstAbs = s.bI + cs.dst.reg
		case bankF:
			dstAbs = s.bF + cs.dst.reg
		case bankP:
			dstAbs = s.bP + cs.dst.reg
		}
		s.stack = append(s.stack, callFrame{pc: s.pc, bI: s.bI, bF: s.bF, bP: s.bP,
			fn: s.fn, dstBank: cs.dst.bank, dstReg: dstAbs})
		s.bI, s.bF, s.bP = nbI, nbF, nbP
		s.fn = tgt
		s.pc = wx.wp.callEntry[in.aux]
		s.depth++
		return wx.frameChanged(), nil
	case opRet:
		if len(s.stack) == 0 {
			return ctlExit, nil
		}
		fr := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		switch fr.dstBank {
		case bankI:
			d := int(fr.dstReg) * W
			if in.kind == bankI {
				b := int(s.bI+in.b) * W
				for _, l := range lanes {
					ints[d+int(l)] = ints[b+int(l)]
				}
			} else {
				for _, l := range lanes {
					ints[d+int(l)] = 0
				}
			}
		case bankF:
			d := int(fr.dstReg) * W
			if in.kind == bankF {
				b := int(s.bF+in.b) * W
				for _, l := range lanes {
					floats[d+int(l)] = floats[b+int(l)]
				}
			} else {
				for _, l := range lanes {
					floats[d+int(l)] = 0
				}
			}
		case bankP:
			d := int(fr.dstReg) * W
			if in.kind == bankP {
				b := int(s.bP+in.b) * W
				for _, l := range lanes {
					ptrs[d+int(l)] = ptrs[b+int(l)]
				}
			} else {
				for _, l := range lanes {
					ptrs[d+int(l)] = Pointer{}
				}
			}
		}
		s.bI, s.bF, s.bP = fr.bI, fr.bF, fr.bP
		s.fn = fr.fn
		s.pc = fr.pc
		s.depth--
		return wx.frameChanged(), nil
	case opSync:
		n := len(lanes)
		wx.wc.CountBarriers(n)
		gen, released, err := wx.wc.SyncArrive(n)
		if err != nil {
			return 0, err
		}
		if released {
			// Sibling strands parked at this barrier are released too: they
			// merge with this one before either issues past it.
			if len(wx.waiting) > 0 {
				return ctlYield, nil
			}
			return ctlNone, nil
		}
		s.gen = gen
		return ctlSync, nil
	case opAtomic:
		spec := wx.wp.bc.atomics[in.aux]
		fval := atomFloatVal(spec)
		pb := int(s.bP+in.b) * W
		ic := int(s.bI+in.c) * W
		fc := int(s.bF+in.c) * W
		for _, l := range lanes {
			li := int(l)
			var iv, iv2 int64
			var fv float64
			if fval {
				fv = floats[fc+li]
			} else {
				iv = ints[ic+li]
			}
			if spec.name == "atomicCAS" {
				iv2 = ints[int(s.bI+spec.val2)*W+li]
			}
			v, err := runAtomic(&wx.wc.Unit, spec, ptrs[pb+li], iv, fv, iv2)
			if err != nil {
				return 0, err
			}
			if in.kind == bankF {
				floats[int(s.bF+in.a)*W+li] = v.F
			} else {
				ints[int(s.bI+in.a)*W+li] = v.I
			}
		}
	case opTrap:
		return 0, wx.wp.bc.traps[in.aux]
	}
	return ctlNone, nil
}

// fill sets every cell of row to v.
func fill[T any](row []T, v T) {
	for i := range row {
		row[i] = v
	}
}

// cmpRow writes comparison code's verdict on x[i], y[i] to d[i], as
// cmpIRes or cmpFRes would, switching on the code once for the row.
func cmpRow[T int64 | float64](code int32, d []int64, x, y []T) {
	x, y = x[:len(d)], y[:len(d)]
	switch code {
	case cmpEQ:
		for i := range d {
			d[i] = b2i(x[i] == y[i])
		}
	case cmpNE:
		for i := range d {
			d[i] = b2i(x[i] != y[i])
		}
	case cmpLT:
		for i := range d {
			d[i] = b2i(x[i] < y[i])
		}
	case cmpLE:
		for i := range d {
			d[i] = b2i(x[i] <= y[i])
		}
	case cmpGT:
		for i := range d {
			d[i] = b2i(x[i] > y[i])
		}
	default:
		for i := range d {
			d[i] = b2i(x[i] >= y[i])
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Per-lane scalar semantics shared by the plain and fused executors.

func ptrTruthy(p Pointer) bool {
	return !p.Glob.IsNil() || p.Local != nil || p.Off != 0
}

func round32(f float64) float64 { return float64(float32(f)) }

func cmpIRes(code int32, a, b int64) int64 {
	var res bool
	switch code {
	case cmpEQ:
		res = a == b
	case cmpNE:
		res = a != b
	case cmpLT:
		res = a < b
	case cmpLE:
		res = a <= b
	case cmpGT:
		res = a > b
	default:
		res = a >= b
	}
	return b2i(res)
}

func cmpURes(code int32, a, b uint32) int64 {
	var res bool
	switch code {
	case cmpEQ:
		res = a == b
	case cmpNE:
		res = a != b
	case cmpLT:
		res = a < b
	case cmpLE:
		res = a <= b
	case cmpGT:
		res = a > b
	default:
		res = a >= b
	}
	return b2i(res)
}

func cmpFRes(code int32, a, b float64) int64 {
	var res bool
	switch code {
	case cmpEQ:
		res = a == b
	case cmpNE:
		res = a != b
	case cmpLT:
		res = a < b
	case cmpLE:
		res = a <= b
	case cmpGT:
		res = a > b
	default:
		res = a >= b
	}
	return b2i(res)
}

func cmpPRes(code int32, a, b Pointer) int64 {
	d := ptrDelta(a, b)
	eq := d == 0 && a.Space == b.Space && a.Glob == b.Glob && a.Local == b.Local
	var res bool
	switch code {
	case cmpEQ:
		res = eq
	case cmpNE:
		res = !eq
	case cmpLT:
		res = d < 0
	case cmpLE:
		res = d <= 0
	case cmpGT:
		res = d > 0
	default:
		res = d >= 0
	}
	return b2i(res)
}

// atomFloatVal reports whether the lowering placed the atomic's value
// operand in the float bank (must match the choice in lowerer.builtin).
func atomFloatVal(spec *atomSpec) bool {
	if spec.elem.Kind != KFloat {
		return false
	}
	switch spec.name {
	case "atomicAdd", "atomicSub", "atomicExch":
		return true
	}
	return false
}

func dimPick(dims *[12]int, base int32, dim int64) int {
	if dim >= 0 && dim < 3 {
		return dims[base*3+int32(dim)]
	}
	return 0
}
