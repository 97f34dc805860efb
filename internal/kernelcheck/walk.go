//kernelcheck:hotpath
package kernelcheck

import (
	"sort"
	"strings"

	"webgpu/internal/minicuda"
)

func scanFn(fn *minicuda.Function, sums map[*minicuda.Function]*fnSummary) (barrier, tidx bool) {
	walkNodes(fn.Body, func(n minicuda.Node) {
		switch x := n.(type) {
		case *minicuda.Call:
			if isBarrierBuiltin(x.Builtin) {
				barrier = true
			}
			if x.Builtin == "get_local_id" || x.Builtin == "get_global_id" {
				tidx = true
			}
			if x.Fn != nil {
				if s := sums[x.Fn]; s != nil {
					barrier = barrier || s.usesBarrier
					tidx = tidx || s.usesTIdx
				}
			}
		case *minicuda.BuiltinVarRef:
			if x.Base == "threadIdx" {
				tidx = true
			}
		}
	})
	return barrier, tidx
}

func isBarrierBuiltin(name string) bool {
	return name == "__syncthreads" || name == "barrier"
}

func isAtomicBuiltin(name string) bool {
	switch name {
	case "atomicAdd", "atomicSub", "atomicMax", "atomicMin", "atomicExch", "atomicCAS":
		return true
	}
	return false
}

// ev is the abstract value of an expression: its affine form (nil when
// not representable), provable bounds (nil when unbounded), whether the
// bounds are tight (attained by some thread/iteration), and whether the
// value is thread-dependent.
type ev struct {
	aff     *affine
	lo, hi  *affine
	loTight bool
	hiTight bool
	tainted bool
}

func evConst(c int64) ev {
	a := affConst(c)
	return ev{aff: a, lo: a, hi: a, loTight: true, hiTight: true}
}

func evUnknown(tainted bool) ev { return ev{tainted: tainted} }

// varInfo is the abstract state of one variable.
type varInfo struct {
	aff       *affine // nil = unknown (reads produce an opaque versioned term)
	lo, hi    *affine // range refinement, nil = unbounded
	loT, hiT  bool    // bounds tight (attained)
	tainted   bool
	ver       int
	knownNneg bool // lo ≥ 0 established (propagates into opaque terms)
}

type env map[*minicuda.Symbol]*varInfo

func (e env) clone() env {
	c := make(env, len(e))
	for s, v := range e {
		cp := *v
		c[s] = &cp
	}
	return c
}

// siteKey identifies a source position (plus an optional symbol name)
// without rendering it to a string — dedup maps in hot paths key on it.
type siteKey struct {
	line, col int
	name      string
}

func site(tok minicuda.Token, name string) siteKey {
	return siteKey{line: tok.Line, col: tok.Col, name: name}
}

// access is one recorded memory access.
type access struct {
	sym      *minicuda.Symbol
	space    minicuda.MemSpace
	write    bool
	atomic   bool
	interval int
	idx      *affine // flattened element index (scalar elements)
	lo, hi   *affine
	divRead  bool   // under thread-dependent control flow
	guarded  bool   // under any control flow
	pins     string // canonical pin signature from == guards
	pos      minicuda.Token
	expr     string // rendered index for messages
	via      string // device function the access was replayed from ("" = direct)
	// Call-site position for replayed accesses: two calls to the same
	// helper share the access's textual position, so the call site is
	// what distinguishes their effect copies.
	csLine, csCol int
	wrapped       bool
	// Wrap copies model the *next* iteration of a loop; they may only
	// race with accesses recorded inside that loop's body, whose indexes
	// span [wrapLo, wrapHi) in the access list.
	wrapLo, wrapHi int
}

// txRange is the refinement state of one thread dimension.
type txRange struct {
	hi  *affine // threadIdx.d ≤ hi (nil unbounded)
	lo  *affine // threadIdx.d ≥ lo (default 0)
	pin *affine // threadIdx.d == pin (from equality guards)
}

type analyzer struct {
	prog *minicuda.Program
	fn   *minicuda.Function
	sums map[*minicuda.Function]*fnSummary

	env      env
	tx       [3]txRange
	version  int
	interval int
	accesses []access
	divDepth int // enclosing thread-dependent conditions
	anyDepth int // enclosing conditions of any kind
	record   bool
	quiet    bool // suppress diagnostics (summary runs record accesses only)
	exitWarn bool // a thread-dependent early return has occurred
	nonnegT  map[string]bool
	attained map[string]bool // uniform terms whose minimum 0 is attained

	// Summary-collection state (set for buildEffects runs only).
	trackSummary bool
	retEvs       []ev
	barrierLog   []barrierInfo

	diags []Diagnostic

	walked func(minicuda.Stmt) // sees every statement walkStmt visits; tests count with it

	barrierDivSeen map[siteKey]bool
	oobSeen        map[siteKey]bool
	assignedMemo   map[minicuda.Node]map[string]bool
}

func newAnalyzer(prog *minicuda.Program, fn *minicuda.Function, sums map[*minicuda.Function]*fnSummary) *analyzer {
	a := &analyzer{
		prog:           prog,
		fn:             fn,
		sums:           sums,
		env:            make(env),
		record:         true,
		nonnegT:        make(map[string]bool),
		attained:       make(map[string]bool),
		barrierDivSeen: make(map[siteKey]bool),
		oobSeen:        make(map[siteKey]bool),
		assignedMemo:   make(map[minicuda.Node]map[string]bool),
	}
	for _, p := range fn.Params {
		a.env[p.Sym] = &varInfo{ver: a.nextVer()}
	}
	return a
}

func (a *analyzer) nextVer() int { a.version++; return a.version }

func (a *analyzer) nonneg(name string) bool {
	for _, f := range strings.Split(name, "*") {
		if !a.nonnegT[f] {
			return false
		}
	}
	return true
}

// rangeOf derives bounds for an affine value from its terms: thread
// dimensions and known-nonnegative uniforms have minimum 0, so the
// expression's minimum is its constant when every coefficient is
// positive on such a term. The minimum is tight (attained by a real
// thread) when each contributing term actually reaches 0 — thread
// indexes do (thread 0), and so do terms containing a blockIdx factor
// (block 0). Upper bounds are unknown without launch geometry.
func (a *analyzer) rangeOf(af *affine) (lo, hi *affine, loT, hiT bool) {
	if af == nil {
		return nil, nil, false, false
	}
	if af.isConst() {
		return af, af, true, true
	}
	loT = true
	for _, tc := range af.terms {
		nn := tc.t.td != tdNone || a.nonneg(tc.t.u)
		if tc.k <= 0 || !nn {
			return nil, nil, false, false
		}
		if tc.t.td == tdNone && !a.attainsZero(tc.t.u) {
			loT = false
		}
	}
	return affConst(af.c), nil, loT, false
}

// attainsZero reports whether a uniform term name provably takes the
// value 0 on some thread (so a lower bound using it is attained).
func (a *analyzer) attainsZero(name string) bool {
	for _, f := range strings.Split(name, "*") {
		if a.attained[f] {
			return true // one zero factor zeroes the product
		}
	}
	return false
}

func (a *analyzer) run() {
	a.walkStmt(a.fn.Body)
	a.checkRaces()
	a.checkPerf()
}

func (a *analyzer) diag(id string, sev Severity, tok minicuda.Token, msg, hint string) {
	if !a.record || a.quiet {
		return
	}
	a.diags = append(a.diags, Diagnostic{
		ID: id, Severity: sev, Kernel: a.fn.Name, Pos: tok.Pos(), Message: msg, Hint: hint,
	})
}

// ---- Statements ------------------------------------------------------------

// walkStmt interprets one statement and reports whether it definitely
// transfers control out (return/break/continue on every path).
func (a *analyzer) walkStmt(s minicuda.Stmt) bool {
	if a.walked != nil {
		a.walked(s)
	}
	switch st := s.(type) {
	case *minicuda.Block:
		term := false
		for _, sub := range st.Stmts {
			if term {
				break // unreachable; hygiene pass reports it
			}
			term = a.walkStmt(sub)
		}
		return term
	case *minicuda.DeclStmt:
		for _, d := range st.Decls {
			vi := &varInfo{ver: a.nextVer()}
			if d.Init != nil {
				e := a.eval(d.Init)
				vi.aff, vi.lo, vi.hi = e.aff, e.lo, e.hi
				vi.loT, vi.hiT = e.loTight, e.hiTight
				vi.tainted = e.tainted || a.divDepth > 0
			}
			a.env[d.Sym] = vi
		}
		return false
	case *minicuda.ExprStmt:
		a.eval(st.X)
		return false
	case *minicuda.IfStmt:
		return a.walkIf(st)
	case *minicuda.ForStmt:
		a.walkFor(st)
		return false
	case *minicuda.WhileStmt:
		a.walkWhile(st)
		return false
	case *minicuda.ReturnStmt:
		if st.X != nil {
			v := a.eval(st.X)
			if a.trackSummary && a.record {
				a.retEvs = append(a.retEvs, v)
			}
		}
		return true
	case *minicuda.BreakStmt, *minicuda.ContinueStmt:
		return true
	case *minicuda.EmptyStmt, nil:
		return false
	}
	return false
}

func (a *analyzer) walkIf(st *minicuda.IfStmt) bool {
	cond := a.eval(st.Cond)

	base := a.env
	savedTx := a.tx

	a.env = base.clone()
	a.applyRefinement(st.Cond, true)
	a.enterBranch(cond.tainted)
	thenTerm := a.walkStmt(st.Then)
	a.leaveBranch(cond.tainted)
	thenEnv := a.env
	a.tx = savedTx

	a.env = base.clone()
	elseTerm := false
	if st.Else != nil {
		a.applyRefinement(st.Cond, false)
		a.enterBranch(cond.tainted)
		elseTerm = a.walkStmt(st.Else)
		a.leaveBranch(cond.tainted)
	} else if thenTerm {
		// if (c) return; — the fall-through path has !c: keep its
		// refinement for the rest of the function.
		a.applyRefinement(st.Cond, false)
	}
	elseEnv := a.env
	a.tx = savedTx

	switch {
	case thenTerm && !elseTerm:
		a.env = elseEnv
	case elseTerm && !thenTerm:
		a.env = thenEnv
	default:
		a.env = mergeEnv(thenEnv, elseEnv, cond.tainted, a.nextVer)
	}

	if cond.tainted && (thenTerm || elseTerm) && !(thenTerm && elseTerm) {
		a.exitWarn = true
	}
	return thenTerm && elseTerm
}

func (a *analyzer) enterBranch(tainted bool) {
	a.anyDepth++
	if tainted {
		a.divDepth++
	}
}

func (a *analyzer) leaveBranch(tainted bool) {
	a.anyDepth--
	if tainted {
		a.divDepth--
	}
}

// mergeEnv joins two branch environments; variables that differ get the
// condition's taint added (the phi of a divergent assignment is
// thread-dependent) and lose their affine value.
func mergeEnv(a, b env, condTaint bool, nextVer func() int) env {
	out := make(env, len(a))
	for _, s := range sortedSyms(a) {
		va := a[s]
		vb, ok := b[s]
		if !ok {
			cp := *va
			out[s] = &cp
			continue
		}
		m := &varInfo{tainted: va.tainted || vb.tainted, ver: va.ver}
		if vb.ver > m.ver {
			m.ver = vb.ver
		}
		if va.aff != nil && vb.aff != nil && affEqual(va.aff, vb.aff) {
			m.aff = va.aff
		} else if va.aff != nil || vb.aff != nil || va.ver != vb.ver {
			m.tainted = m.tainted || condTaint
			m.ver = nextVer()
		}
		if va.lo != nil && vb.lo != nil && affEqual(va.lo, vb.lo) {
			m.lo, m.loT = va.lo, va.loT && vb.loT
		}
		if va.hi != nil && vb.hi != nil && affEqual(va.hi, vb.hi) {
			m.hi, m.hiT = va.hi, va.hiT && vb.hiT
		}
		m.knownNneg = va.knownNneg && vb.knownNneg
		out[s] = m
	}
	return out
}

// walkFor interprets a for loop: a non-recording fixpoint stabilizes the
// taint/value environment, canonical constant-step loops get a range for
// the induction variable, then one recording pass walks the body with
// barrier-interval wrap-around.
func (a *analyzer) walkFor(st *minicuda.ForStmt) {
	if st.Init != nil {
		a.walkStmt(st.Init)
	}
	iv, lo, hi, hiTight := a.canonicalFor(st)

	assigned := a.assignedIn(st.Body)
	if st.Post != nil {
		post := a.assignedIn(st.Post)
		if len(post) > 0 {
			merged := make(map[string]bool, len(assigned)+len(post))
			for k := range assigned {
				merged[k] = true
			}
			for k := range post {
				merged[k] = true
			}
			assigned = merged
		}
	}

	a.fixpoint(func() {
		if st.Cond != nil {
			a.eval(st.Cond)
		}
		a.walkStmt(st.Body)
		if st.Post != nil {
			a.eval(st.Post)
		}
	})

	var condTaint bool
	if st.Cond != nil {
		condTaint = a.eval(st.Cond).tainted
	}
	if iv != nil {
		vi := a.env[iv]
		vi.aff = nil // reads become an opaque versioned term with the loop range
		vi.lo, vi.hi = lo, hi
		vi.loT, vi.hiT = true, hiTight
		vi.knownNneg = geZero(lo, a.nonneg)
		vi.ver = a.nextVer()
	}

	constTrip := iv != nil && lo != nil && hi != nil && lo.isConst() && hi.isConst() && lo.c <= hi.c
	guarded := !constTrip // zero-trip-count loops make the body conditional

	i0 := a.interval
	startIdx := len(a.accesses)
	preEnv := a.env.clone()
	savedTx := a.tx
	if st.Cond != nil {
		// Inside the body the condition held when it was last checked.
		a.applyRefinement(st.Cond, true)
	}
	if guarded {
		a.anyDepth++
	}
	if condTaint {
		a.divDepth++
	}
	a.walkStmt(st.Body)
	if st.Post != nil {
		a.eval(st.Post)
	}
	if condTaint {
		a.divDepth--
	}
	if guarded {
		a.anyDepth--
	}
	a.wrapIntervals(i0, startIdx, assigned)
	a.havoc(assigned)
	a.tx = savedTx
	// Body-only refinements don't survive the loop; variables the body
	// never assigns revert to their pre-loop state.
	for s, v := range preEnv {
		if !assigned[s.Name] {
			a.env[s] = v
		}
	}
}

func (a *analyzer) walkWhile(st *minicuda.WhileStmt) {
	assigned := a.assignedIn(st.Body)

	a.fixpoint(func() {
		a.eval(st.Cond)
		a.walkStmt(st.Body)
	})

	condTaint := a.eval(st.Cond).tainted
	i0 := a.interval
	startIdx := len(a.accesses)
	preEnv := a.env.clone()
	savedTx := a.tx
	if !st.DoFirst {
		// A do-while body's first iteration runs unconditionally, so the
		// condition refinement only applies to plain while loops.
		a.applyRefinement(st.Cond, true)
		a.anyDepth++
	}
	if condTaint {
		a.divDepth++
	}
	a.walkStmt(st.Body)
	if condTaint {
		a.divDepth--
	}
	if !st.DoFirst {
		a.anyDepth--
	}
	a.wrapIntervals(i0, startIdx, assigned)
	a.havoc(assigned)
	a.tx = savedTx
	for s, v := range preEnv {
		if !assigned[s.Name] {
			a.env[s] = v
		}
	}
}

// fixpointCap bounds a loop's non-recording passes.
const fixpointCap = 6

// fixpoint runs body in non-recording mode until the environment
// stabilizes, at most fixpointCap times. A variable whose affine value
// or bounds change between iterations is not loop-invariant: it sticks
// to "unknown" so the recording pass models an arbitrary iteration, not
// the first one.
func (a *analyzer) fixpoint(body func()) {
	savedRecord := a.record
	a.record = false
	sticky := make(map[*minicuda.Symbol]bool)
	for i := 0; i < fixpointCap; i++ {
		prev := make(map[*minicuda.Symbol]varInfo, len(a.env))
		for s, v := range a.env {
			prev[s] = *v
		}
		body()
		changed := false
		for _, s := range sortedSyms(a.env) {
			v := a.env[s]
			pv, ok := prev[s]
			if !ok {
				continue // declared inside the body; scoped to it
			}
			if v.tainted != pv.tainted {
				changed = true
			}
			stable := (v.aff == nil) == (pv.aff == nil) &&
				(v.aff == nil || affEqual(v.aff, pv.aff)) &&
				boundEq(v.lo, pv.lo) && boundEq(v.hi, pv.hi)
			if sticky[s] || !stable {
				if !sticky[s] {
					sticky[s] = true
					changed = true
				}
				v.aff, v.lo, v.hi = nil, nil, nil
				v.loT, v.hiT, v.knownNneg = false, false, false
				v.ver = a.nextVer()
			}
		}
		if !changed && i > 0 {
			break
		}
	}
	a.record = savedRecord
}

func boundEq(x, y *affine) bool {
	if x == nil || y == nil {
		return x == y
	}
	return affEqual(x, y)
}

// havoc invalidates loop-assigned variables after the loop: the
// recording pass modeled one iteration, but the loop may have run any
// number of times, so neither the value nor the in-body range survives.
func (a *analyzer) havoc(assigned map[string]bool) {
	for _, s := range sortedSyms(a.env) {
		if assigned[s.Name] {
			v := a.env[s]
			v.aff, v.lo, v.hi = nil, nil, nil
			v.loT, v.hiT, v.knownNneg = false, false, false
			v.ver = a.nextVer()
		}
	}
}

// sortedSyms returns the environment's symbols in a stable order so
// version allocation (and therefore opaque term names) is deterministic.
func sortedSyms(e env) []*minicuda.Symbol {
	syms := make([]*minicuda.Symbol, 0, len(e))
	for s := range e {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Name != syms[j].Name {
			return syms[i].Name < syms[j].Name
		}
		return syms[i].Slot < syms[j].Slot
	})
	return syms
}

// wrapIntervals models the loop back-edge for race detection: if the
// body contains a barrier, accesses from the body's first barrier
// interval also execute (next iteration) concurrently with the last
// interval of this iteration. Loop-assigned variables are renamed in the
// copies so "k" in the copy means next iteration's k.
func (a *analyzer) wrapIntervals(i0, startIdx int, assigned map[string]bool) {
	if !a.record || a.interval == i0 {
		return
	}
	end := len(a.accesses)
	for i := startIdx; i < end; i++ {
		ac := a.accesses[i]
		if ac.interval != i0 || ac.wrapped {
			continue
		}
		ac.interval = a.interval
		ac.wrapped = true
		ac.wrapLo, ac.wrapHi = startIdx, end
		ac.idx = ac.idx.renameWrapped(assigned)
		ac.lo = ac.lo.renameWrapped(assigned)
		ac.hi = ac.hi.renameWrapped(assigned)
		a.accesses = append(a.accesses, ac)
	}
}

// canonicalFor recognizes `for (i = A; i < B; i += C)` with C > 0 and
// returns the induction variable and its [lo, hi] range over the loop.
func (a *analyzer) canonicalFor(st *minicuda.ForStmt) (iv *minicuda.Symbol, lo, hi *affine, hiTight bool) {
	var initVal ev
	switch init := st.Init.(type) {
	case *minicuda.DeclStmt:
		if len(init.Decls) != 1 || init.Decls[0].Init == nil {
			return nil, nil, nil, false
		}
		iv = init.Decls[0].Sym
		initVal = a.snapshotEval(init.Decls[0].Init)
	case *minicuda.ExprStmt:
		as, ok := init.X.(*minicuda.Assign)
		if !ok || as.Op != "=" {
			return nil, nil, nil, false
		}
		vr, ok := as.L.(*minicuda.VarRef)
		if !ok {
			return nil, nil, nil, false
		}
		iv = vr.Sym
		initVal = a.snapshotEval(as.R)
	default:
		return nil, nil, nil, false
	}
	if iv == nil || initVal.aff == nil {
		return nil, nil, nil, false
	}
	cmp, ok := st.Cond.(*minicuda.Binary)
	if !ok || (cmp.Op != "<" && cmp.Op != "<=") {
		return nil, nil, nil, false
	}
	lv, ok := cmp.L.(*minicuda.VarRef)
	if !ok || lv.Sym != iv {
		return nil, nil, nil, false
	}
	bound := a.snapshotEval(cmp.R)
	if bound.aff == nil || bound.tainted {
		return nil, nil, nil, false
	}
	step := int64(0)
	switch post := st.Post.(type) {
	case *minicuda.Unary:
		if post.Op == "++" {
			step = 1
		}
	case *minicuda.Postfix:
		if post.Op == "++" {
			step = 1
		}
	case *minicuda.Assign:
		if vr, ok := post.L.(*minicuda.VarRef); ok && vr.Sym == iv {
			switch post.Op {
			case "+=":
				if c, ok := post.R.(*minicuda.IntLit); ok && c.Val > 0 {
					step = c.Val
				}
			case "=":
				// i = i + c and i = c + i.
				if b, ok := post.R.(*minicuda.Binary); ok && b.Op == "+" {
					l, lOK := b.L.(*minicuda.VarRef)
					r, rOK := b.R.(*minicuda.VarRef)
					if lOK && l.Sym == iv {
						if c, ok := b.R.(*minicuda.IntLit); ok && c.Val > 0 {
							step = c.Val
						}
					} else if rOK && r.Sym == iv {
						if c, ok := b.L.(*minicuda.IntLit); ok && c.Val > 0 {
							step = c.Val
						}
					}
				}
			}
		}
	}
	if step <= 0 {
		return nil, nil, nil, false
	}
	hi = affSub(bound.aff, affConst(1))
	if cmp.Op == "<=" {
		hi = bound.aff
	}
	// The maximum is attained only for unit step (for larger steps the
	// last value is A + k·C which may fall short of B-1).
	return iv, initVal.aff, hi, step == 1
}

// snapshotEval evaluates an expression without recording accesses or
// mutating state (for loop-shape recognition). eval only mutates the
// environment through assignments, so saving the handful of variables
// the expression assigns is enough — cloning the whole environment here
// was one of the analyzer's hottest allocation sites.
func (a *analyzer) snapshotEval(e minicuda.Expr) ev {
	saved := a.record
	a.record = false
	assigned := a.assignedIn(e)
	type savedVar struct {
		vi  *varInfo
		old varInfo
	}
	var savedVars []savedVar
	if len(assigned) > 0 {
		for s, v := range a.env {
			if assigned[s.Name] {
				savedVars = append(savedVars, savedVar{v, *v})
			}
		}
	}
	v := a.eval(e)
	for _, sv := range savedVars {
		*sv.vi = sv.old
	}
	a.record = saved
	return v
}

// assignedIn is collectAssigned memoized on the node pointer: loop
// bodies are re-walked many times (outer fixpoints re-enter inner
// loops), and the assigned set of a statement never changes.
func (a *analyzer) assignedIn(n minicuda.Node) map[string]bool {
	if m, ok := a.assignedMemo[n]; ok {
		return m
	}
	m := map[string]bool{}
	if s, ok := n.(minicuda.Stmt); ok {
		collectAssigned(s, m)
	} else if e, ok := n.(minicuda.Expr); ok {
		collectAssigned(&minicuda.ExprStmt{X: e}, m)
	}
	a.assignedMemo[n] = m
	return m
}

// collectAssigned gathers the names of variables assigned anywhere in a
// statement (for loop havoc and wrap-around renaming).
func collectAssigned(s minicuda.Stmt, out map[string]bool) {
	walkNodes(s, func(n minicuda.Node) {
		switch x := n.(type) {
		case *minicuda.Assign:
			if vr, ok := x.L.(*minicuda.VarRef); ok {
				out[vr.Name] = true
			}
		case *minicuda.Unary:
			if x.Op == "++" || x.Op == "--" {
				if vr, ok := x.X.(*minicuda.VarRef); ok {
					out[vr.Name] = true
				}
			}
		case *minicuda.Postfix:
			if vr, ok := x.X.(*minicuda.VarRef); ok {
				out[vr.Name] = true
			}
		case *minicuda.DeclStmt:
			for _, d := range x.Decls {
				out[d.Name] = true
			}
		}
	})
}

// walkNodes visits every node of a statement tree.
func walkNodes(s minicuda.Stmt, f func(minicuda.Node)) {
	var ws func(minicuda.Stmt)
	var we func(minicuda.Expr)
	we = func(e minicuda.Expr) {
		if e == nil {
			return
		}
		f(e)
		switch x := e.(type) {
		case *minicuda.Unary:
			we(x.X)
		case *minicuda.Postfix:
			we(x.X)
		case *minicuda.Binary:
			we(x.L)
			we(x.R)
		case *minicuda.Assign:
			we(x.L)
			we(x.R)
		case *minicuda.Ternary:
			we(x.Cond)
			we(x.Then)
			we(x.Else)
		case *minicuda.Index:
			we(x.Base)
			we(x.Idx)
		case *minicuda.Call:
			for _, ar := range x.Args {
				we(ar)
			}
		case *minicuda.Cast:
			we(x.X)
		}
	}
	ws = func(s minicuda.Stmt) {
		if s == nil {
			return
		}
		f(s)
		switch x := s.(type) {
		case *minicuda.Block:
			for _, sub := range x.Stmts {
				ws(sub)
			}
		case *minicuda.DeclStmt:
			for _, d := range x.Decls {
				we(d.Init)
			}
		case *minicuda.ExprStmt:
			we(x.X)
		case *minicuda.IfStmt:
			we(x.Cond)
			ws(x.Then)
			ws(x.Else)
		case *minicuda.ForStmt:
			ws(x.Init)
			we(x.Cond)
			we(x.Post)
			ws(x.Body)
		case *minicuda.WhileStmt:
			we(x.Cond)
			ws(x.Body)
		case *minicuda.ReturnStmt:
			we(x.X)
		}
	}
	ws(s)
}
