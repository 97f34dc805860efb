package kernelcheck

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"webgpu/internal/minicuda"
)

// eval abstractly interprets an expression, recording memory accesses
// and bounds findings along the way.
func (a *analyzer) eval(e minicuda.Expr) ev {
	switch x := e.(type) {
	case *minicuda.IntLit:
		return evConst(x.Val)
	case *minicuda.BoolLit:
		if x.Val {
			return evConst(1)
		}
		return evConst(0)
	case *minicuda.FloatLit:
		return evUnknown(false)
	case *minicuda.VarRef:
		return a.evalVar(x)
	case *minicuda.BuiltinVarRef:
		return a.evalBuiltinVar(x)
	case *minicuda.Unary:
		return a.evalUnary(x)
	case *minicuda.Postfix:
		old := a.eval(x.X)
		a.assignTo(x.X, evUnknown(old.tainted), true)
		return old
	case *minicuda.Binary:
		return a.evalBinary(x)
	case *minicuda.Assign:
		return a.evalAssign(x)
	case *minicuda.Ternary:
		return a.evalTernary(x)
	case *minicuda.Index:
		return a.evalIndex(x, false, false)
	case *minicuda.Call:
		return a.evalCall(x)
	case *minicuda.Cast:
		v := a.eval(x.X)
		if !x.To.IsInteger() {
			v.aff, v.lo, v.hi = nil, nil, nil
		}
		return v
	}
	return evUnknown(false)
}

func (a *analyzer) evalVar(x *minicuda.VarRef) ev {
	vi := a.env[x.Sym]
	if vi == nil {
		vi = &varInfo{ver: a.nextVer()}
		a.env[x.Sym] = vi
	}
	if x.Sym.Type != nil && !x.Sym.Type.IsInteger() {
		// Arrays/pointers/floats: the name itself is not an index value.
		return evUnknown(vi.tainted)
	}
	v := ev{tainted: vi.tainted, lo: vi.lo, hi: vi.hi, loTight: vi.loT, hiTight: vi.hiT}
	if vi.aff != nil {
		v.aff = vi.aff
		rlo, rhi, rloT, rhiT := a.rangeOf(vi.aff)
		if v.lo == nil {
			v.lo, v.loTight = rlo, rloT
		}
		if v.hi == nil {
			v.hi, v.hiTight = rhi, rhiT
		}
		return v
	}
	name := x.Name + "@" + strconv.Itoa(vi.ver)
	if vi.knownNneg || geZero(vi.lo, a.nonneg) {
		a.nonnegT[name] = true
	}
	if !vi.tainted {
		v.aff = affTerm(term{u: name}, 1)
	}
	return v
}

func (a *analyzer) evalBuiltinVar(x *minicuda.BuiltinVarRef) ev {
	d := tdim(x.Dim + 1) // Dim 0..2 → tdX..tdZ
	switch x.Base {
	case "threadIdx":
		r := a.tx[x.Dim]
		if r.pin != nil {
			v := ev{aff: r.pin, tainted: false}
			v.lo, v.hi, v.loTight, v.hiTight = a.rangeOf(r.pin)
			return v
		}
		v := ev{aff: affTerm(term{td: d}, 1), tainted: true, lo: affConst(0), loTight: true}
		if r.lo != nil {
			v.lo, v.loTight = r.lo, false
		}
		v.hi = r.hi
		return v
	case "blockIdx", "blockDim", "gridDim":
		name := x.Base + "." + [3]string{"x", "y", "z"}[x.Dim]
		a.nonnegT[name] = true
		lo := int64(0)
		if x.Base == "blockDim" || x.Base == "gridDim" {
			lo = 1
		} else {
			a.attained[name] = true // block 0 exists
		}
		return ev{aff: affTerm(term{u: name}, 1), lo: affConst(lo), loTight: x.Base == "blockIdx"}
	}
	return evUnknown(true)
}

func (a *analyzer) evalUnary(x *minicuda.Unary) ev {
	switch x.Op {
	case "+":
		return a.eval(x.X)
	case "-":
		v := a.eval(x.X)
		return ev{aff: affNeg(v.aff), lo: affNeg(v.hi), hi: affNeg(v.lo),
			loTight: v.hiTight, hiTight: v.loTight, tainted: v.tainted}
	case "!", "~":
		v := a.eval(x.X)
		return evUnknown(v.tainted)
	case "++", "--":
		old := a.eval(x.X)
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		nv := ev{aff: affAdd(old.aff, affConst(delta)), tainted: old.tainted,
			lo: affAdd(old.lo, affConst(delta)), hi: affAdd(old.hi, affConst(delta)),
			loTight: old.loTight, hiTight: old.hiTight}
		a.assignTo(x.X, nv, false)
		return nv
	case "*":
		// Deref of a pointer: model as index 0 when the operand is a
		// plain parameter pointer.
		if vr, ok := x.X.(*minicuda.VarRef); ok && vr.Sym != nil && vr.Sym.Type != nil && vr.Sym.Type.IsPtr() {
			a.recordPtrAccess(vr, evConst(0), false, false, x.Tok())
			return evUnknown(false)
		}
		v := a.eval(x.X)
		return evUnknown(v.tainted)
	case "&":
		v := a.eval(x.X)
		return evUnknown(v.tainted)
	}
	return evUnknown(a.eval(x.X).tainted)
}

func (a *analyzer) evalBinary(x *minicuda.Binary) ev {
	l := a.eval(x.L)
	r := a.eval(x.R)
	t := l.tainted || r.tainted
	switch x.Op {
	case "+":
		return ev{aff: affAdd(l.aff, r.aff), tainted: t,
			lo: affAdd(l.lo, r.lo), hi: affAdd(l.hi, r.hi),
			loTight: l.loTight && r.loTight, hiTight: l.hiTight && r.hiTight}
	case "-":
		return ev{aff: affSub(l.aff, r.aff), tainted: t,
			lo: affSub(l.lo, r.hi), hi: affSub(l.hi, r.lo),
			loTight: l.loTight && r.hiTight, hiTight: l.hiTight && r.loTight}
	case "*":
		v := ev{aff: affMul(l.aff, r.aff), tainted: t}
		if r.aff != nil && r.aff.isConst() {
			v.lo, v.hi, v.loTight, v.hiTight = scaleRange(l, r.aff.c)
		} else if l.aff != nil && l.aff.isConst() {
			v.lo, v.hi, v.loTight, v.hiTight = scaleRange(r, l.aff.c)
		}
		return v
	case "/":
		v := evUnknown(t)
		if r.aff != nil && r.aff.isConst() && r.aff.c > 0 {
			c := r.aff.c
			if l.aff != nil && divisible(l.aff, c) {
				v.aff = divExact(l.aff, c)
			}
			if l.lo != nil && l.lo.isConst() && l.hi != nil && l.hi.isConst() {
				v.lo, v.hi = affConst(floorDiv(l.lo.c, c)), affConst(floorDiv(l.hi.c, c))
			} else if geZero(l.lo, a.nonneg) {
				v.lo = affConst(0)
			}
		}
		return v
	case "%":
		v := evUnknown(t)
		if r.aff != nil && r.aff.isConst() && r.aff.c > 0 && geZero(l.lo, a.nonneg) {
			v.lo, v.hi = affConst(0), affConst(r.aff.c-1)
		}
		return v
	case "<<":
		if r.aff != nil && r.aff.isConst() && r.aff.c >= 0 && r.aff.c < 31 {
			k := int64(1) << r.aff.c
			v := ev{aff: affScale(l.aff, k), tainted: t}
			v.lo, v.hi, v.loTight, v.hiTight = scaleRange(l, k)
			return v
		}
		return evUnknown(t)
	case ">>":
		if r.aff != nil && r.aff.isConst() && r.aff.c >= 0 && r.aff.c < 31 {
			v := evUnknown(t)
			if geZero(l.lo, a.nonneg) {
				v.lo = affConst(0)
			}
			return v
		}
		return evUnknown(t)
	default: // comparisons, &&, ||, &, |, ^
		return evUnknown(t)
	}
}

func scaleRange(v ev, k int64) (lo, hi *affine, loT, hiT bool) {
	if k >= 0 {
		return affScale(v.lo, k), affScale(v.hi, k), v.loTight, v.hiTight
	}
	return affScale(v.hi, k), affScale(v.lo, k), v.hiTight, v.loTight
}

func divisible(a *affine, c int64) bool {
	if a.c%c != 0 {
		return false
	}
	for _, tc := range a.terms {
		if tc.k%c != 0 {
			return false
		}
	}
	return true
}

func divExact(a *affine, c int64) *affine {
	r := affConst(a.c / c)
	for _, tc := range a.terms {
		r.addTerm(tc.t, tc.k/c)
	}
	return r
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func (a *analyzer) evalTernary(x *minicuda.Ternary) ev {
	cond := a.eval(x.Cond)
	base := a.env
	savedTx := a.tx

	a.env = base.clone()
	a.applyRefinement(x.Cond, true)
	a.enterBranch(cond.tainted)
	tv := a.eval(x.Then)
	a.leaveBranch(cond.tainted)
	thenEnv := a.env
	a.tx = savedTx

	a.env = base.clone()
	a.applyRefinement(x.Cond, false)
	a.enterBranch(cond.tainted)
	fv := a.eval(x.Else)
	a.leaveBranch(cond.tainted)
	a.tx = savedTx

	a.env = mergeEnv(thenEnv, a.env, cond.tainted, a.nextVer)

	out := evUnknown(cond.tainted || tv.tainted || fv.tainted)
	if tv.aff != nil && fv.aff != nil && affEqual(tv.aff, fv.aff) {
		out.aff = tv.aff
	}
	return out
}

func (a *analyzer) evalAssign(x *minicuda.Assign) ev {
	rv := a.eval(x.R)
	if x.Op != "=" {
		// Compound assignment reads the LHS first.
		lv := a.eval(x.L)
		op := strings.TrimSuffix(x.Op, "=")
		nv := evUnknown(lv.tainted || rv.tainted)
		switch op {
		case "+":
			nv = ev{aff: affAdd(lv.aff, rv.aff), tainted: lv.tainted || rv.tainted,
				lo: affAdd(lv.lo, rv.lo), hi: affAdd(lv.hi, rv.hi),
				loTight: lv.loTight && rv.loTight, hiTight: lv.hiTight && rv.hiTight}
		case "-":
			nv = ev{aff: affSub(lv.aff, rv.aff), tainted: lv.tainted || rv.tainted,
				lo: affSub(lv.lo, rv.hi), hi: affSub(lv.hi, rv.lo),
				loTight: lv.loTight && rv.hiTight, hiTight: lv.hiTight && rv.loTight}
		case "*":
			nv.aff = affMul(lv.aff, rv.aff)
		}
		a.assignTo(x.L, nv, false)
		return nv
	}
	a.assignTo(x.L, rv, false)
	return rv
}

// assignTo writes an abstract value into an lvalue. alreadyRead marks
// postfix ops whose read was performed by the caller.
func (a *analyzer) assignTo(lhs minicuda.Expr, v ev, alreadyRead bool) {
	switch l := lhs.(type) {
	case *minicuda.VarRef:
		vi := a.env[l.Sym]
		if vi == nil {
			vi = &varInfo{}
			a.env[l.Sym] = vi
		}
		vi.aff, vi.lo, vi.hi = v.aff, v.lo, v.hi
		vi.loT, vi.hiT = v.loTight, v.hiTight
		vi.tainted = v.tainted || a.divDepth > 0
		vi.knownNneg = geZero(v.lo, a.nonneg)
		vi.ver = a.nextVer()
	case *minicuda.Index:
		a.evalIndex(l, true, false)
	case *minicuda.Unary:
		if l.Op == "*" {
			if vr, ok := l.X.(*minicuda.VarRef); ok && vr.Sym != nil && vr.Sym.Type != nil && vr.Sym.Type.IsPtr() {
				a.recordPtrAccess(vr, evConst(0), true, false, l.Tok())
				return
			}
		}
		a.eval(l.X)
	default:
		if lhs != nil {
			a.eval(lhs)
		}
	}
}

func (a *analyzer) evalCall(x *minicuda.Call) ev {
	if isBarrierBuiltin(x.Builtin) {
		for _, arg := range x.Args {
			a.eval(arg)
		}
		a.barrierAt(x.Tok())
		return evUnknown(false)
	}
	if isAtomicBuiltin(x.Builtin) {
		// First argument is &target; an atomic is a read-modify-write
		// that never races with other atomics.
		if len(x.Args) > 0 {
			if u, ok := x.Args[0].(*minicuda.Unary); ok && u.Op == "&" {
				if idx, ok := u.X.(*minicuda.Index); ok {
					a.evalIndex(idx, true, true)
				} else {
					a.eval(u.X)
				}
			} else {
				a.eval(x.Args[0])
			}
		}
		for _, arg := range x.Args[1:] {
			a.eval(arg)
		}
		return evUnknown(true) // returned old value is schedule-dependent
	}
	switch x.Builtin {
	case "get_local_id", "get_global_id":
		t := true
		if len(x.Args) == 1 {
			if c, ok := x.Args[0].(*minicuda.IntLit); ok && c.Val >= 0 && c.Val <= 2 {
				d := tdim(c.Val + 1)
				aff := affTerm(term{td: d}, 1)
				if x.Builtin == "get_global_id" {
					off := fmt.Sprintf("__group_off.%d", c.Val)
					a.nonnegT[off] = true
					a.attained[off] = true // group 0 exists
					aff = affAdd(aff, affTerm(term{u: off}, 1))
				}
				return ev{aff: aff, tainted: t, lo: affConst(0), loTight: x.Builtin == "get_local_id"}
			}
		}
		return evUnknown(t)
	case "get_group_id", "get_local_size", "get_num_groups", "get_global_size":
		for _, arg := range x.Args {
			a.eval(arg)
		}
		return ev{lo: affConst(0)}
	}
	tainted := false
	argEvs := make([]ev, len(x.Args))
	for i, arg := range x.Args {
		argEvs[i] = a.eval(arg)
		tainted = argEvs[i].tainted || tainted
	}
	if x.Fn != nil {
		if s := a.sums[x.Fn]; s != nil {
			if s.precise {
				return a.applyCall(x, s, argEvs)
			}
			// Opaque fallback: cycle members keep the flags-only
			// treatment.
			if s.usesBarrier {
				a.callBarrier(x.Tok(), x.Name, barrierInfo{})
			}
			tainted = tainted || s.usesTIdx
		}
		return evUnknown(tainted)
	}
	switch x.Builtin {
	case "abs":
		return ev{lo: affConst(0), tainted: tainted}
	case "min", "max":
		return evUnknown(tainted)
	}
	return evUnknown(tainted)
}

// barrierAt handles a __syncthreads (or a call into a function that
// performs one): it closes the current barrier interval and reports
// divergence hazards.
func (a *analyzer) barrierAt(tok minicuda.Token) {
	if a.record {
		if a.trackSummary {
			a.barrierLog = append(a.barrierLog, barrierInfo{
				div:  a.divDepth > 0,
				exit: a.exitWarn && a.divDepth == 0,
			})
		}
		if a.divDepth > 0 && !a.barrierDivSeen[site(tok, "")] {
			a.barrierDivSeen[site(tok, "")] = true
			a.diag(RuleBarrierDivergence, SevWarn, tok,
				"__syncthreads executes under thread-dependent control flow; threads that skip it deadlock or diverge the barrier",
				"hoist the barrier out of the conditional so every thread of the block reaches it")
		} else if a.exitWarn && a.divDepth == 0 && !a.barrierDivSeen[site(tok, "")] {
			a.barrierDivSeen[site(tok, "")] = true
			a.diag(RuleBarrierExit, SevWarn, tok,
				"__syncthreads is reachable after a thread-dependent early return; exited threads never arrive at the barrier",
				"replace the early return with a guard around the work so all threads still reach __syncthreads")
		}
	}
	a.interval++
}

// ---- Index expressions and bounds ------------------------------------------

// evalIndex handles (possibly nested) subscripting: it flattens the
// index chain, records the access for the race/perf passes, and checks
// bounds against declared extents.
func (a *analyzer) evalIndex(x *minicuda.Index, write, atomic bool) ev {
	// Collect the chain outermost→innermost, then reverse: idxs[0]
	// indexes the first (outermost) dimension.
	var chain []minicuda.Expr
	base := minicuda.Expr(x)
	for {
		ix, ok := base.(*minicuda.Index)
		if !ok {
			break
		}
		chain = append(chain, ix.Idx)
		base = ix.Base
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}

	vr, ok := base.(*minicuda.VarRef)
	if !ok || vr.Sym == nil || vr.Sym.Type == nil {
		bt := a.eval(base).tainted
		for _, idx := range chain {
			bt = a.eval(idx).tainted || bt
		}
		return evUnknown(bt)
	}
	bt := vr.Sym.Type

	if bt.IsPtr() {
		iv := a.eval(chain[0])
		for _, idx := range chain[1:] {
			a.eval(idx)
		}
		a.recordPtrAccess(vr, iv, write, atomic, x.Tok())
		return evUnknown(iv.tainted)
	}
	if bt.Kind != minicuda.KArray {
		t := a.eval(base).tainted
		for _, idx := range chain {
			t = a.eval(idx).tainted || t
		}
		return evUnknown(t)
	}

	// Array: flatten against the declared dimensions.
	var dims []int
	for t := bt; t.Kind == minicuda.KArray; t = t.Elem {
		dims = append(dims, t.Len)
	}
	scalar := bt.ElemBase()
	n := len(chain)
	if n > len(dims) {
		n = len(dims)
	}
	flat := affConst(0)
	flatLo, flatHi := affConst(0), affConst(0)
	flatLoT, flatHiT := true, true
	tainted := false
	var dimEvs []ev
	for k := 0; k < n; k++ {
		iv := a.eval(chain[k])
		dimEvs = append(dimEvs, iv)
		tainted = tainted || iv.tainted
		stride := int64(1)
		for _, d := range dims[k+1:] {
			stride *= int64(d)
		}
		flat = affAdd(flat, affScale(iv.aff, stride))
		flatLo = affAdd(flatLo, affScale(iv.lo, stride))
		flatHi = affAdd(flatHi, affScale(iv.hi, stride))
		flatLoT = flatLoT && iv.loTight
		flatHiT = flatHiT && iv.hiTight
	}
	for _, idx := range chain[n:] {
		tainted = a.eval(idx).tainted || tainted
	}

	if len(chain) >= len(dims) {
		fe := ev{aff: flat, lo: flatLo, hi: flatHi, loTight: flatLoT, hiTight: flatHiT, tainted: tainted}
		a.recordArrayAccess(vr, dims, dimEvs, fe, scalar, write, atomic, x.Tok())
	}
	return evUnknown(tainted)
}

// recordPtrAccess records an access through a pointer parameter (global
// memory). Extent is unknown; only the negative side is checkable.
func (a *analyzer) recordPtrAccess(vr *minicuda.VarRef, iv ev, write, atomic bool, tok minicuda.Token) {
	if a.record {
		a.accesses = append(a.accesses, access{
			sym: vr.Sym, space: minicuda.SpaceGlobal, write: write, atomic: atomic,
			interval: a.interval, idx: iv.aff, lo: a.uniformBound(iv.lo), hi: a.uniformBound(iv.hi),
			divRead: a.divDepth > 0, guarded: a.anyDepth > 0, pins: a.pinSig(),
			pos: tok, expr: vr.Name + "[" + iv.aff.String() + "]",
		})
	}
	a.checkPtrLower(vr.Name, iv, tok, a.anyDepth == 0, "")
}

// checkPtrLower reports a negative index through a pointer; via names
// the device function the access was replayed from ("" = direct).
func (a *analyzer) checkPtrLower(name string, iv ev, tok minicuda.Token, unconditional bool, via string) {
	if iv.lo != nil && iv.lo.isConst() && iv.lo.c < 0 {
		key := site(tok, name)
		if a.oobSeen[key] {
			return
		}
		a.oobSeen[key] = true
		if iv.loTight && unconditional {
			a.diag(RuleOOB, SevError, tok,
				fmt.Sprintf("%s[%s]%s reaches a negative index (minimum %d); the device traps on the first thread that executes it",
					name, iv.aff, viaSuffix(via), iv.lo.c),
				"guard the access so the index stays in range")
		} else {
			a.diag(RuleOOBMaybe, SevWarn, tok,
				fmt.Sprintf("%s[%s]%s may reach a negative index (minimum %d)", name, iv.aff, viaSuffix(via), iv.lo.c),
				"guard the access so the index stays in range")
		}
	}
}

// viaSuffix renders the call-chain marker for diagnostics on replayed
// accesses.
func viaSuffix(via string) string {
	if via == "" {
		return ""
	}
	return " (via " + via + ")"
}

// recordArrayAccess records an access to a declared array (shared,
// local, or constant) and checks it against the declared extents.
func (a *analyzer) recordArrayAccess(vr *minicuda.VarRef, dims []int, dimEvs []ev, flat ev, scalar *minicuda.Type, write, atomic bool, tok minicuda.Token) {
	space := vr.Sym.Type.Space
	if vr.Sym.Kind == minicuda.SymShared {
		space = minicuda.SpaceShared
	}
	if a.record {
		a.accesses = append(a.accesses, access{
			sym: vr.Sym, space: space, write: write, atomic: atomic,
			interval: a.interval, idx: flat.aff, lo: a.uniformBound(flat.lo), hi: a.uniformBound(flat.hi),
			divRead: a.divDepth > 0, guarded: a.anyDepth > 0, pins: a.pinSig(),
			pos: tok, expr: vr.Name + "[" + flat.aff.String() + "]",
		})
	}
	total := int64(1)
	for _, d := range dims {
		total *= int64(d)
	}
	a.checkArrayBounds(vr, dims, dimEvs, flat, total, scalar, space, tok, a.anyDepth == 0, "")
}

func (a *analyzer) checkArrayBounds(vr *minicuda.VarRef, dims []int, dimEvs []ev, flat ev, total int64, scalar *minicuda.Type, space minicuda.MemSpace, tok minicuda.Token, unconditional bool, via string) {
	if !a.record {
		return
	}
	key := site(tok, vr.Name)
	if a.oobSeen[key] {
		return
	}
	report := func(id string, sev Severity, msg, hint string) {
		a.oobSeen[key] = true
		a.diag(id, sev, tok, msg, hint)
	}

	// Flattened element range against the whole variable.
	loConst := flat.lo != nil && flat.lo.isConst()
	hiConst := flat.hi != nil && flat.hi.isConst()
	arrayDesc := fmt.Sprintf("%s %s (%d elements)%s", space, vr.Name, total, viaSuffix(via))

	if loConst && flat.lo.c < 0 {
		// For shared variables the device traps on negative *arena*
		// offsets; a negative offset into a variable at a positive arena
		// offset lands in the preceding shared variable instead.
		arenaLo := flat.lo.c*int64(scalar.Size()) + int64(vr.Sym.Off)
		traps := space != minicuda.SpaceShared || arenaLo < 0
		if flat.loTight && unconditional && traps {
			report(RuleOOB, SevError,
				fmt.Sprintf("%s[%s] reaches index %d of %s; the device traps", vr.Name, flat.aff, flat.lo.c, arrayDesc),
				"keep the index inside the declared extent")
		} else {
			report(RuleOOBMaybe, SevWarn,
				fmt.Sprintf("%s[%s] may reach index %d of %s", vr.Name, flat.aff, flat.lo.c, arrayDesc),
				"keep the index inside the declared extent")
		}
		return
	}
	if loConst && flat.lo.c >= total {
		a.reportOver(report, vr, flat, total, scalar, space, arrayDesc, true, unconditional)
		return
	}
	if hiConst && flat.hi.c >= total {
		a.reportOver(report, vr, flat, total, scalar, space, arrayDesc, flat.hiTight, unconditional)
		return
	}

	// Per-dimension logical violations that stay inside the flattened
	// variable: these never trap (the arena is flat) but index the wrong
	// row — the classic transposed-tile bug.
	for k, iv := range dimEvs {
		if iv.hi != nil && iv.hi.isConst() && iv.hi.c >= int64(dims[k]) && len(dims) > 1 {
			report(RuleOOBMaybe, SevWarn,
				fmt.Sprintf("dimension %d of %s[%s] can reach %d but is declared [%d]; the flat arena hides this, the access lands in a different row",
					k, vr.Name, flat.aff, iv.hi.c, dims[k]),
				"check the index order against the declaration")
			return
		}
	}
}

func (a *analyzer) reportOver(report func(string, Severity, string, string), vr *minicuda.VarRef, flat ev, total int64, scalar *minicuda.Type, space minicuda.MemSpace, arrayDesc string, tight, unconditional bool) {
	hiVal := flat.hi
	if flat.lo != nil && flat.lo.isConst() && flat.lo.c >= total {
		hiVal = flat.lo
	}
	// Beyond the variable. For shared memory the device only traps past
	// the whole arena (other shared variables may absorb the overflow).
	traps := true
	if space == minicuda.SpaceShared {
		arenaHi := hiVal.c*int64(scalar.Size()) + int64(vr.Sym.Off) + int64(scalar.Size())
		traps = arenaHi > int64(a.fn.SharedUse)
	}
	if tight && unconditional && traps {
		report(RuleOOB, SevError,
			fmt.Sprintf("%s[%s] reaches index %d of %s; the device traps", vr.Name, flat.aff, hiVal.c, arrayDesc),
			"keep the index inside the declared extent")
	} else {
		msg := fmt.Sprintf("%s[%s] may reach index %d of %s", vr.Name, flat.aff, hiVal.c, arrayDesc)
		if !traps {
			msg += "; it lands in an adjacent shared variable instead of trapping"
		}
		report(RuleOOBMaybe, SevWarn, msg, "keep the index inside the declared extent")
	}
}

// uniformBound strips bounds containing thread-dimension terms: race
// disjointness compares bounds across *different* threads, where a
// shared threadIdx term would be unsound.
func (a *analyzer) uniformBound(b *affine) *affine {
	if b == nil || !b.hasThreadTerms() {
		return b
	}
	return nil
}

// tightenHi replaces a variable's upper bound only when the new bound is
// an improvement: a refinement repeating an already-known bound must not
// demote its tightness.
func (a *analyzer) tightenHi(vi *varInfo, h *affine) {
	if h == nil {
		return
	}
	if vi.hi != nil {
		if s, ok := cmpAff(h, vi.hi, a.nonneg); ok && s >= 0 {
			return
		}
	}
	vi.hi, vi.hiT = h, false
}

func (a *analyzer) tightenLo(vi *varInfo, l *affine) {
	if l == nil {
		return
	}
	if vi.lo != nil {
		if s, ok := cmpAff(l, vi.lo, a.nonneg); ok && s <= 0 {
			return
		}
	}
	vi.lo, vi.loT = l, false
}

// pinSig summarizes equality pins on thread dimensions in scope, e.g.
// "x=0" under `if (threadIdx.x == 0)`.
func (a *analyzer) pinSig() string {
	var parts []string
	for d := 0; d < 3; d++ {
		if a.tx[d].pin != nil {
			parts = append(parts, fmt.Sprintf("%s=%s", [3]string{"x", "y", "z"}[d], a.tx[d].pin))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// ---- Condition refinement --------------------------------------------------

// applyRefinement narrows variable and thread-index ranges from a branch
// condition. branch selects the then (true) or else (false) side.
func (a *analyzer) applyRefinement(cond minicuda.Expr, branch bool) {
	switch c := cond.(type) {
	case *minicuda.Unary:
		if c.Op == "!" {
			a.applyRefinement(c.X, !branch)
		}
	case *minicuda.Binary:
		switch c.Op {
		case "&&":
			if branch {
				a.applyRefinement(c.L, true)
				a.applyRefinement(c.R, true)
			}
		case "||":
			if !branch {
				a.applyRefinement(c.L, false)
				a.applyRefinement(c.R, false)
			}
		case "<", "<=", ">", ">=", "==", "!=":
			a.refineCmp(c, branch)
		}
	}
}

func (a *analyzer) refineCmp(c *minicuda.Binary, branch bool) {
	op := c.Op
	if !branch {
		op = negateOp(op)
	}
	// Normalize to L op R with L the refined side; also refine R via the
	// flipped comparison.
	a.refineSide(c.L, op, c.R)
	a.refineSide(c.R, flipOp(op), c.L)
}

func negateOp(op string) string {
	switch op {
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	case "==":
		return "!="
	case "!=":
		return "=="
	}
	return op
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // == and != are symmetric
}

// refineSide narrows lhs (a variable or threadIdx member) against the
// abstract value of rhs.
func (a *analyzer) refineSide(lhs minicuda.Expr, op string, rhs minicuda.Expr) {
	rv := a.snapshotEval(rhs)
	if rv.aff == nil {
		return
	}
	switch l := lhs.(type) {
	case *minicuda.VarRef:
		if l.Sym == nil || l.Sym.Type == nil || !l.Sym.Type.IsInteger() {
			return
		}
		vi := a.env[l.Sym]
		if vi == nil {
			return
		}
		cp := *vi
		vi = &cp
		a.env[l.Sym] = vi
		switch op {
		case "<":
			a.tightenHi(vi, affSub(rv.aff, affConst(1)))
		case "<=":
			a.tightenHi(vi, rv.aff)
		case ">":
			a.tightenLo(vi, affAdd(rv.aff, affConst(1)))
		case ">=":
			a.tightenLo(vi, rv.aff)
		case "==":
			if !rv.tainted {
				vi.aff, vi.lo, vi.hi = rv.aff, rv.aff, rv.aff
				vi.tainted = false
			}
		}
		vi.knownNneg = vi.knownNneg || geZero(vi.lo, a.nonneg)
	case *minicuda.BuiltinVarRef:
		if l.Base != "threadIdx" || rv.tainted {
			return
		}
		r := &a.tx[l.Dim]
		switch op {
		case "<":
			r.hi = affSub(rv.aff, affConst(1))
		case "<=":
			r.hi = rv.aff
		case ">":
			r.lo = affAdd(rv.aff, affConst(1))
		case ">=":
			r.lo = rv.aff
		case "==":
			r.pin = rv.aff
		}
	}
}
