package kernelcheck

// Interprocedural effect summaries. Each device function gets, besides
// the cheap reachability flags (usesBarrier/usesTIdx), a *memory-effect
// summary*: the list of accesses it performs through its pointer
// parameters, with affine indexes expressed over "arg#N" placeholder
// terms, the static sequence of barriers it executes, and its return
// value as an affine over the same terms. Call sites substitute actual
// argument values for the placeholders and replay the effects into the
// caller's access stream, so the race/bounds/divergence passes see
// through calls instead of treating them opaquely.
//
// Summaries are computed in callee-before-caller (reverse topological)
// order; a function on a call cycle falls back to the flags-only
// summary (precise=false) and its call sites degrade to the old opaque
// treatment.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"webgpu/internal/minicuda"
)

// argTerm names the i-th parameter placeholder in summary affines.
func argTerm(i int) string { return "arg#" + strconv.Itoa(i) }

// argIndex parses an "arg#N" placeholder factor name.
func argIndex(f string) (int, bool) {
	if !strings.HasPrefix(f, "arg#") {
		return 0, false
	}
	n, err := strconv.Atoi(f[len("arg#"):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// effect is one memory access a device function performs through a
// pointer parameter, in caller-substitutable form.
type effect struct {
	argPos         int // which parameter the pointer base is
	write          bool
	atomic         bool
	idx            *affine // over thread dims, arg#N placeholders, callee-local opaques
	divRead        bool    // under thread-dependent control flow inside the callee
	guarded        bool    // under any control flow inside the callee
	pins           string  // threadIdx equality pins active inside the callee
	barriersBefore int     // barriers the callee executes before this access
	tok            minicuda.Token
	callee         string
}

// barrierInfo is one barrier the callee executes, with the hazard flags
// that held inside the callee when it ran.
type barrierInfo struct {
	div  bool // under thread-dependent control flow inside the callee
	exit bool // reachable after a thread-dependent early return inside the callee
}

// fnSummary is the per-function information calls need. usesBarrier and
// usesTIdx come from a cheap syntactic fixpoint and are always valid;
// the effect fields are only meaningful when precise is set.
type fnSummary struct {
	usesBarrier bool
	usesTIdx    bool

	precise    bool // effects/barriers/ret computed (not a cycle fallback)
	effects    []effect
	barriers   []barrierInfo
	ret        *affine // return value over arg#N/thread terms; nil = unknown
	retTainted bool
}

// summarizeFlags computes the reachability flags with a small fixpoint
// over the call graph (device functions cannot be recursive in practice,
// but the iteration bound keeps a cycle from hanging the analyzer).
func summarizeFlags(prog *minicuda.Program) map[*minicuda.Function]*fnSummary {
	sums := make(map[*minicuda.Function]*fnSummary, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		sums[fn] = &fnSummary{}
	}
	for iter := 0; iter < len(prog.Funcs)+1; iter++ {
		changed := false
		for _, fn := range prog.Funcs {
			s := sums[fn]
			b, t := scanFn(fn, sums)
			if b && !s.usesBarrier {
				s.usesBarrier = true
				changed = true
			}
			if t && !s.usesTIdx {
				s.usesTIdx = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sums
}

// summarize computes the full summaries: flags for every function, and
// effect summaries for device functions in callee-before-caller order.
func summarize(prog *minicuda.Program) map[*minicuda.Function]*fnSummary {
	sums := summarizeFlags(prog)
	calls := calleeMap(prog)
	for _, fn := range topoOrder(prog, calls) {
		if !fn.IsKernel {
			buildEffects(prog, fn, sums)
		}
	}
	return sums
}

// calleeMap returns each function's direct user-function callees,
// deduplicated and sorted by name for determinism.
func calleeMap(prog *minicuda.Program) map[*minicuda.Function][]*minicuda.Function {
	out := make(map[*minicuda.Function][]*minicuda.Function, len(prog.Funcs))
	for _, fn := range prog.Funcs {
		seen := map[*minicuda.Function]bool{}
		var cs []*minicuda.Function
		walkNodes(fn.Body, func(n minicuda.Node) {
			if c, ok := n.(*minicuda.Call); ok && c.Fn != nil && !seen[c.Fn] {
				seen[c.Fn] = true
				cs = append(cs, c.Fn)
			}
		})
		sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
		out[fn] = cs
	}
	return out
}

// topoOrder returns the functions callee-first. Members of a call cycle
// are emitted in first-visit order; buildEffects leaves them imprecise
// because their callees' summaries are not ready.
func topoOrder(prog *minicuda.Program, calls map[*minicuda.Function][]*minicuda.Function) []*minicuda.Function {
	const (
		inProgress = 1
		done       = 2
	)
	state := make(map[*minicuda.Function]int, len(prog.Funcs))
	var order []*minicuda.Function
	var visit func(fn *minicuda.Function)
	visit = func(fn *minicuda.Function) {
		if state[fn] != 0 {
			return
		}
		state[fn] = inProgress
		for _, c := range calls[fn] {
			visit(c)
		}
		state[fn] = done
		order = append(order, fn)
	}
	for _, fn := range prog.Funcs {
		visit(fn)
	}
	return order
}

// buildEffects runs the abstract interpreter over a device function with
// placeholder parameter values and converts the recorded accesses into
// the function's effect summary. A panic (an analyzer bug) leaves the
// summary imprecise rather than failing the whole analysis.
func buildEffects(prog *minicuda.Program, fn *minicuda.Function, sums map[*minicuda.Function]*fnSummary) {
	s := sums[fn]
	defer func() {
		if r := recover(); r != nil {
			s.precise = false
			s.effects, s.barriers, s.ret = nil, nil, nil
		}
	}()

	a := newAnalyzer(prog, fn, sums)
	a.quiet = true
	a.trackSummary = true
	paramIdx := make(map[*minicuda.Symbol]int, len(fn.Params))
	for i, p := range fn.Params {
		if p.Sym == nil || p.Sym.Type == nil {
			continue
		}
		if p.Sym.Type.IsInteger() {
			a.env[p.Sym].aff = affTerm(term{u: argTerm(i)}, 1)
		} else if p.Sym.Type.IsPtr() {
			paramIdx[p.Sym] = i
		}
	}
	a.walkStmt(fn.Body)

	s.barriers = a.barrierLog
	for _, ac := range a.accesses {
		if ac.wrapped {
			continue // loop back-edge copies are meaningful only in-body
		}
		pos, ok := paramIdx[ac.sym]
		if !ok {
			continue // not through a pointer parameter; cannot escape
		}
		ef := effect{
			argPos: pos, write: ac.write, atomic: ac.atomic,
			idx: ac.idx, divRead: ac.divRead, guarded: ac.guarded,
			pins: ac.pins, barriersBefore: ac.interval,
			tok: ac.pos, callee: fn.Name,
		}
		// A pin whose value references a parameter compares by rendered
		// signature across call sites with different arguments; demote it
		// to a plain guard so the race pass stays sound.
		if strings.Contains(ef.pins, "arg#") {
			ef.pins, ef.guarded, ef.divRead = "", true, true
		}
		s.effects = append(s.effects, ef)
	}
	if len(a.retEvs) > 0 {
		ret := a.retEvs[0]
		equal := ret.aff != nil
		for _, rv := range a.retEvs[1:] {
			if rv.tainted {
				ret.tainted = true
			}
			if rv.aff == nil || ret.aff == nil || !affEqual(rv.aff, ret.aff) {
				equal = false
			}
		}
		if equal {
			s.ret, s.retTainted = ret.aff, ret.tainted
		} else {
			s.retTainted = true
		}
	}
	s.precise = true
}

// ---- Call-site substitution -------------------------------------------------

// isGlobalUniform reports whether an opaque term name denotes a value
// that is the same uniform in every function (builtin grid geometry), so
// it must survive substitution un-renamed.
func isGlobalUniform(f string) bool {
	return strings.HasPrefix(f, "blockIdx.") ||
		strings.HasPrefix(f, "blockDim.") ||
		strings.HasPrefix(f, "gridDim.") ||
		strings.HasPrefix(f, "__group_off.")
}

// noteBuiltinTerm registers the nonnegativity/attainment facts the
// caller would have learned had it evaluated the builtin itself.
func (a *analyzer) noteBuiltinTerm(f string) {
	switch {
	case strings.HasPrefix(f, "blockIdx."), strings.HasPrefix(f, "__group_off."):
		a.nonnegT[f] = true
		a.attained[f] = true // block/group 0 exists
	case strings.HasPrefix(f, "blockDim."), strings.HasPrefix(f, "gridDim."):
		a.nonnegT[f] = true
	}
}

// localizer renames callee-local opaque terms with a call-site-unique
// prefix so two different calls (or a call and the caller's own locals)
// never alias; global uniforms pass through unchanged.
func (a *analyzer) localizer(tok minicuda.Token) func(string) string {
	prefix := "c" + strconv.Itoa(tok.Line) + "_" + strconv.Itoa(tok.Col) + "~"
	return func(f string) string {
		if isGlobalUniform(f) {
			a.noteBuiltinTerm(f)
			return f
		}
		return prefix + f
	}
}

// substAffine maps a summary affine into the caller's term space:
// arg#N factors become the affine of the N-th argument, other opaque
// factors are localized. nil when any needed argument has no affine
// value or a product leaves the affine domain.
func (a *analyzer) substAffine(src *affine, argEvs []ev, local func(string) string) *affine {
	if src == nil {
		return nil
	}
	out := affConst(src.c)
	for _, tc := range src.terms {
		p := affConst(tc.k)
		if tc.t.td != tdNone {
			p = affMul(p, affTerm(term{td: tc.t.td}, 1))
		}
		if tc.t.u != "" {
			for _, f := range strings.Split(tc.t.u, "*") {
				if n, ok := argIndex(f); ok {
					if n >= len(argEvs) || argEvs[n].aff == nil {
						return nil
					}
					p = affMul(p, argEvs[n].aff)
				} else {
					p = affMul(p, affTerm(term{u: local(f)}, 1))
				}
			}
		}
		out = affAdd(out, p)
		if out == nil {
			return nil
		}
	}
	return out
}

// substBounds derives caller-context interval bounds for a summary
// affine: arg#N terms use the argument's bounds, nonnegative terms
// (thread dims, builtin uniforms, nonnegative arguments) bound one side
// at zero, anything else loses that side.
func (a *analyzer) substBounds(src *affine, argEvs []ev) (lo, hi *affine, loT, hiT bool) {
	if src == nil {
		return nil, nil, false, false
	}
	lo, hi = affConst(src.c), affConst(src.c)
	loT, hiT = true, true
	for _, tc := range src.terms {
		if n, ok := argIndex(tc.t.u); ok && tc.t.td == tdNone && !strings.Contains(tc.t.u, "*") {
			var av ev
			if n < len(argEvs) {
				av = argEvs[n]
			}
			tlo, thi, tloT, thiT := scaleRange(av, tc.k)
			lo = affAdd(lo, tlo)
			hi = affAdd(hi, thi)
			loT = loT && tloT
			hiT = hiT && thiT
			continue
		}
		if a.termNonnegSubst(tc.t, argEvs) {
			if tc.k > 0 {
				hi = nil // unbounded above
				if !a.termAttainsZeroSubst(tc.t, argEvs) {
					loT = false
				}
			} else {
				lo = nil
				if !a.termAttainsZeroSubst(tc.t, argEvs) {
					hiT = false
				}
			}
			continue
		}
		return nil, nil, false, false
	}
	if lo == nil {
		loT = false
	}
	if hi == nil {
		hiT = false
	}
	return lo, hi, loT, hiT
}

// termNonnegSubst reports whether a summary term is provably ≥ 0 once
// arguments are substituted.
func (a *analyzer) termNonnegSubst(t term, argEvs []ev) bool {
	if t.u == "" {
		return t.td != tdNone
	}
	for _, f := range strings.Split(t.u, "*") {
		if n, ok := argIndex(f); ok {
			if n >= len(argEvs) || !geZero(argEvs[n].lo, a.nonneg) {
				return false
			}
			continue
		}
		if !isGlobalUniform(f) {
			return false
		}
	}
	return true
}

// termAttainsZeroSubst reports whether the term provably takes the value
// 0 on some real thread (one zero factor zeroes the product).
func (a *analyzer) termAttainsZeroSubst(t term, argEvs []ev) bool {
	if t.td != tdNone {
		return true // thread 0 exists
	}
	for _, f := range strings.Split(t.u, "*") {
		if n, ok := argIndex(f); ok {
			av := ev{}
			if n < len(argEvs) {
				av = argEvs[n]
			}
			if av.lo != nil && av.lo.isConst() && av.lo.c == 0 && av.loTight {
				return true
			}
			continue
		}
		if strings.HasPrefix(f, "blockIdx.") || strings.HasPrefix(f, "__group_off.") {
			return true
		}
	}
	return false
}

// mergePins unions two pin signatures.
func mergePins(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	set := map[string]bool{}
	for _, p := range strings.Split(a, ",") {
		set[p] = true
	}
	for _, p := range strings.Split(b, ",") {
		set[p] = true
	}
	parts := make([]string, 0, len(set))
	for p := range set {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// peelPtrArg resolves a pointer-typed call argument to its base variable
// plus an optional element offset expression: `s`, `s + k`, `k + s`,
// `s - k`. Anything else is unresolvable (the effect is dropped, a
// documented under-approximation).
func peelPtrArg(e minicuda.Expr) (vr *minicuda.VarRef, off minicuda.Expr, neg bool) {
	isBase := func(x minicuda.Expr) *minicuda.VarRef {
		v, ok := x.(*minicuda.VarRef)
		if !ok || v.Sym == nil || v.Sym.Type == nil {
			return nil
		}
		if v.Sym.Type.IsPtr() || v.Sym.Type.Kind == minicuda.KArray {
			return v
		}
		return nil
	}
	if v := isBase(e); v != nil {
		return v, nil, false
	}
	if b, ok := e.(*minicuda.Binary); ok {
		switch b.Op {
		case "+":
			if v := isBase(b.L); v != nil {
				return v, b.R, false
			}
			if v := isBase(b.R); v != nil {
				return v, b.L, false
			}
		case "-":
			if v := isBase(b.L); v != nil {
				return v, b.R, true
			}
		}
	}
	return nil, nil, false
}

// applyCall replays a precise callee summary at a call site: barriers
// and effects interleave in callee order, placeholder terms are
// substituted with the actual arguments, and the return value (when the
// callee returns a single affine) flows back to the caller.
func (a *analyzer) applyCall(x *minicuda.Call, s *fnSummary, argEvs []ev) ev {
	local := a.localizer(x.Tok())
	done := 0
	for i := range s.effects {
		ef := &s.effects[i]
		for done < ef.barriersBefore && done < len(s.barriers) {
			a.callBarrier(x.Tok(), x.Name, s.barriers[done])
			done++
		}
		a.replayEffect(x, ef, argEvs, local)
	}
	for done < len(s.barriers) {
		a.callBarrier(x.Tok(), x.Name, s.barriers[done])
		done++
	}

	tainted := s.usesTIdx || s.retTainted
	for _, av := range argEvs {
		tainted = tainted || av.tainted
	}
	out := evUnknown(tainted)
	if s.ret != nil {
		if sub := a.substAffine(s.ret, argEvs, local); sub != nil {
			out.aff = sub
			out.lo, out.hi, out.loTight, out.hiTight = a.substBounds(s.ret, argEvs)
			out.tainted = out.tainted || sub.hasThreadTerms()
		}
	}
	return out
}

// callBarrier closes a barrier interval reached through a device-
// function call and reports divergence hazards at the call site.
func (a *analyzer) callBarrier(tok minicuda.Token, callee string, bi barrierInfo) {
	if a.record {
		if a.trackSummary {
			a.barrierLog = append(a.barrierLog, barrierInfo{
				div:  bi.div || a.divDepth > 0,
				exit: bi.exit || (a.exitWarn && a.divDepth == 0),
			})
		}
		k := site(tok, callee)
		if !a.barrierDivSeen[k] {
			switch {
			case a.divDepth > 0:
				a.barrierDivSeen[k] = true
				a.diag(RuleBarrierCallDiv, SevWarn, tok,
					fmt.Sprintf("call to %q executes __syncthreads under thread-dependent control flow; threads that skip the call deadlock or diverge the barrier", callee),
					"hoist the call (or its barrier) out of the conditional so every thread of the block reaches it")
			case bi.div:
				a.barrierDivSeen[k] = true
				a.diag(RuleBarrierCallDiv, SevWarn, tok,
					fmt.Sprintf("%q performs __syncthreads under thread-dependent control flow inside the callee; threads that skip it deadlock or diverge the barrier", callee),
					"make the barrier unconditional inside the callee, or sync in the caller instead")
			case bi.exit || a.exitWarn:
				a.barrierDivSeen[k] = true
				a.diag(RuleBarrierExit, SevWarn, tok,
					fmt.Sprintf("call to %q reaches __syncthreads after a thread-dependent early return; exited threads never arrive at the barrier", callee),
					"replace the early return with a guard around the work so all threads still reach the barrier")
			}
		}
	}
	a.interval++
}

// replayEffect records one callee effect in the caller's context.
func (a *analyzer) replayEffect(x *minicuda.Call, ef *effect, argEvs []ev, local func(string) string) {
	if ef.argPos >= len(x.Args) {
		return
	}
	vr, offExpr, neg := peelPtrArg(x.Args[ef.argPos])
	if vr == nil {
		return
	}
	iv := ev{tainted: true}
	if sub := a.substAffine(ef.idx, argEvs, local); sub != nil {
		iv.aff = sub
		iv.lo, iv.hi, iv.loTight, iv.hiTight = a.substBounds(ef.idx, argEvs)
	}
	if offExpr != nil {
		ov := a.snapshotEval(offExpr)
		if neg {
			ov = ev{aff: affNeg(ov.aff), lo: affNeg(ov.hi), hi: affNeg(ov.lo),
				loTight: ov.hiTight, hiTight: ov.loTight, tainted: ov.tainted}
		}
		iv = ev{aff: affAdd(iv.aff, ov.aff), tainted: true,
			lo: affAdd(iv.lo, ov.lo), hi: affAdd(iv.hi, ov.hi),
			loTight: iv.loTight && ov.loTight, hiTight: iv.hiTight && ov.hiTight}
	}

	divRead := ef.divRead || a.divDepth > 0
	guarded := ef.guarded || a.anyDepth > 0
	pins := mergePins(ef.pins, a.pinSig())
	expr := vr.Name + "[" + iv.aff.String() + "] via " + ef.callee
	bt := vr.Sym.Type

	if bt.IsPtr() {
		if a.record {
			a.accesses = append(a.accesses, access{
				sym: vr.Sym, space: minicuda.SpaceGlobal, write: ef.write, atomic: ef.atomic,
				interval: a.interval, idx: iv.aff, lo: a.uniformBound(iv.lo), hi: a.uniformBound(iv.hi),
				divRead: divRead, guarded: guarded, pins: pins,
				pos: ef.tok, expr: expr, via: ef.callee,
				csLine: x.Tok().Line, csCol: x.Tok().Col,
			})
		}
		a.checkPtrLower(vr.Name, iv, ef.tok, !guarded, ef.callee)
		return
	}
	if bt.Kind == minicuda.KArray && bt.Elem != nil && bt.Elem.Kind != minicuda.KArray {
		space := bt.Space
		if vr.Sym.Kind == minicuda.SymShared {
			space = minicuda.SpaceShared
		}
		if a.record {
			a.accesses = append(a.accesses, access{
				sym: vr.Sym, space: space, write: ef.write, atomic: ef.atomic,
				interval: a.interval, idx: iv.aff, lo: a.uniformBound(iv.lo), hi: a.uniformBound(iv.hi),
				divRead: divRead, guarded: guarded, pins: pins,
				pos: ef.tok, expr: expr, via: ef.callee,
				csLine: x.Tok().Line, csCol: x.Tok().Col,
			})
		}
		a.checkArrayBounds(vr, []int{bt.Len}, nil, iv, int64(bt.Len), bt.Elem, space, ef.tok, !guarded, ef.callee)
	}
}
