package minicuda

// Bytecode compiler: lowers the type-checked AST into a flat instruction
// stream over typed virtual registers (an int64 bank, a float64 bank and a
// Pointer bank). The warp engine in warp.go fuses and executes the stream;
// the tree-walking interpreter in interp.go remains the semantic oracle. Lowering preserves the oracle's observable behavior
// exactly: the same gpusim counter charges in the same order, the same
// step-budget accounting, and the same runtime trap messages.
//
// Step accounting uses a "pending steps" scheme: every AST node that the
// tree-walker charges a step for (each eval/execStmt entry, plus the
// per-iteration loop step) adds one pending step at lower time, and the
// next emitted instruction consumes all pending steps into its steps
// field. The executor charges an instruction's steps against the budget before
// performing its effect, so the budget trips between the same two
// observable effects as the tree-walker. Jump targets are always bound
// with zero pending steps (bind flushes through an opStep no-op placed
// before the label), which keeps the count path-independent.

type bcOp uint8

// Opcodes. Register operands live in a (dst), b, c; aux holds jump
// targets, comparison codes and side-table indices; k and f are immediate
// payloads; t is the result type where truncation semantics need it.
const (
	opStep bcOp = iota // consume pending steps only

	opLoadKI // ints[a] = k
	opLoadKF // floats[a] = f
	opMovI   // ints[a] = ints[b]
	opMovF   // floats[a] = floats[b]
	opMovP   // ptrs[a] = ptrs[b]
	opZeroP  // ptrs[a] = Pointer{}

	opLeaShared  // ptrs[a] = Pointer{Space: SpaceShared, Off: k}
	opLeaConst   // ptrs[a] = Pointer{Space: SpaceConst, Off: k}
	opAllocLocal // ptrs[a] = fresh local array buffer of type t

	opThreadDim // ints[a] = dim component aux (base*3+dim)
	opWorkItem  // ints[a] = OpenCL work-item fn aux of dim ints[b]

	opI2F    // floats[a] = float64(float32(ints[b]))   convert int->float
	opI2FRaw // floats[a] = float64(ints[b])            toF (no rounding)
	opF2I    // ints[a] = truncInt(t, int64(floats[b])) convert float->int
	opF2IRaw // ints[a] = int64(floats[b])              toI (no truncation)
	opF2F    // floats[a] = float64(float32(floats[b]))
	opTruncI // ints[a] = truncInt(t, ints[b])

	opAddI  // ints[a] = truncInt(t, ints[b] + ints[c])
	opSubI  // ...
	opMulI  //
	opDivI  // signed; ints[c] == 0 traps ErrDivByZero
	opModI  // signed
	opDivU  // uint32 division
	opModU  // uint32 modulo
	opAndI  //
	opOrI   //
	opXorI  //
	opShlI  // ints[b] << (uint(ints[c]) & 31)
	opShrI  // int64(int32(ints[b]) >> (uint(ints[c]) & 31))
	opShrU  // int64(uint32(ints[b]) >> (uint(ints[c]) & 31))
	opNegI  // truncInt(t, -ints[b])
	opNotI  // truncInt(t, ^ints[b])
	opAddKI // ints[a] = truncInt(t, ints[b] + k)
	opMinI  // truncInt(t, signed min)
	opMaxI  //
	opAbsI  // ints[a] = |ints[b]|

	opLNotI   // ints[a] = !(ints[b] != 0)
	opLNotF   // ints[a] = !(floats[b] != 0)
	opLNotP   // ints[a] = !truthy(ptrs[b])
	opTruthyI // ints[a] = ints[b] != 0
	opTruthyF // ints[a] = floats[b] != 0
	opTruthyP // ints[a] = truthy(ptrs[b])

	opAddF  // floats[a] = round32(floats[b] + floats[c])
	opSubF  //
	opMulF  //
	opDivF  //
	opNegF  // round32(-floats[b])
	opAddKF // floats[a] = round32(floats[b] + f)
	opMinF  // round32(math.Min(floats[b], floats[c]))
	opMaxF  //
	opFAbsF // round32(math.Abs(floats[b]))
	opFloor //
	opCeil  //
	opSqrt  // SFU-costed: charges CountSpecial(1) internally
	opRsqrt //
	opExp   //
	opLog   //
	opPow   // floats[a] = round32(math.Pow(floats[b], floats[c]))
	opSin   //
	opCos   //

	opCmpI // ints[a] = compareI(aux, ints[b], ints[c])
	opCmpU // ints[a] = compareU(aux, uint32(ints[b]), uint32(ints[c]))
	opCmpF // ints[a] = compareF(aux, floats[b], floats[c])
	opCmpP // ints[a] = comparePtrs(aux, ptrs[b], ptrs[c])

	opPAdd  // ptrs[a] = ptrs[b].offset(int(ints[c]) * int(k))
	opPAddK // ptrs[a] = ptrs[b].offset(int(k))
	opPDiff // ints[a] = int32-trunc(ptrDelta(ptrs[b], ptrs[c]) / int(k))

	opLoad   // bank[kind][a] = load t at ptrs[b] (k = t.Size())
	opStoreI // store ints[c] as t at ptrs[b]
	opStoreF // store floats[c] as t at ptrs[b]
	opStoreP // store ptrs[c] as t at ptrs[b]

	opJmp // pc = aux
	opJZ  // CountBranch; if !truthy(bank kind, reg b) pc = aux
	opJNZ // CountBranch; if truthy(bank kind, reg b) pc = aux

	opCheckDepth // trap ErrCallDepth when depth == maxCallDepth
	opCall       // invoke calls[aux]
	opRet        // return bank[kind][b] (bankNone: void); pop frame
	opSync       // tc.SyncThreads()
	opAtomic     // atomics[aux] on ptrs[b] with value reg c -> dst a
	opTrap       // return traps[aux]
)

// Register banks; instr.kind selects a bank for opJZ/opJNZ/opRet.
const (
	bankI uint8 = iota
	bankF
	bankP
	bankNone
)

// instr is one bytecode instruction.
type instr struct {
	op    bcOp
	kind  uint8  // bank selector (opJZ/opJNZ/opRet/opLoad)
	alu   uint8  // CountALU charge applied before the op's effect
	steps uint16 // step-budget charge applied first
	a     int32  // dst register
	b, c  int32  // src registers
	aux   int32  // jump target / cmp code / side-table index
	k     int64  // immediate / element size / static offset
	f     float64
	t     *Type // result type for truncation, load/store element type
}

// Comparison codes for opCmp*.
const (
	cmpEQ int32 = iota
	cmpNE
	cmpLT
	cmpLE
	cmpGT
	cmpGE
)

var cmpCodes = map[string]int32{
	"==": cmpEQ, "!=": cmpNE, "<": cmpLT, "<=": cmpLE, ">": cmpGT, ">=": cmpGE,
}

// bcFunc is one lowered function.
type bcFunc struct {
	name             string
	entry            int32
	numI, numF, numP int32 // window sizes (vars + temp watermark)
	params           []loc // home registers of the parameters, in order
	ret              *Type
	retBank          uint8

	// Lowering-time state (register assignment of locals).
	varRegs             []loc // by frame slot
	nVarI, nVarF, nVarP int32
}

// callSpec describes one static call site.
type callSpec struct {
	target *bcFunc
	moves  []argMove
	dst    loc // caller register receiving the return value (bankNone: none)
}

type argMove struct {
	bank     uint8
	src, dst int32 // src: caller window; dst: callee window
}

// atomSpec describes one atomic call site; the memory-space dispatch and
// trap messages are resolved at run time, exactly as the tree-walker does.
type atomSpec struct {
	tok  Token
	name string // canonical builtin name ("atomicAdd", ...)
	elem *Type
	val2 int32 // atomicCAS third operand (int bank)
}

// bytecodeProgram is the lowered artifact cached on a Program.
type bytecodeProgram struct {
	code    []instr
	funcs   map[*Function]*bcFunc
	calls   []*callSpec
	atomics []*atomSpec
	traps   []error
}

// loc names a virtual register.
type loc struct {
	bank uint8
	reg  int32
	home bool // a variable's home register, not a single-assignment temp
}

func bankOf(t *Type) uint8 {
	switch t.Kind {
	case KFloat:
		return bankF
	case KPtr, KArray:
		return bankP
	}
	return bankI
}

// lowerAbort unwinds lowering on an unsupported construct; the program
// then falls back to the tree-walking engine.
type lowerAbort struct{ reason string }

type patch struct {
	at  int32
	lbl int
}

type lowerer struct {
	prog             *Program
	bc               *bytecodeProgram
	fn               *bcFunc
	pend             int
	tI, tF, tP       int32 // next free temp per bank
	maxI, maxF, maxP int32
	labels           []int32
	patches          []patch
	brk              []int // break label stack
	cont             []int // continue label stack
}

// lowerProgram compiles every function of an analyzed program. It returns
// nil when some construct cannot be lowered, in which case launches use
// the tree-walking interpreter.
func lowerProgram(p *Program) (bc *bytecodeProgram, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(lowerAbort); isAbort {
				bc, ok = nil, false
				return
			}
			panic(r)
		}
	}()
	bc = &bytecodeProgram{funcs: make(map[*Function]*bcFunc, len(p.Funcs))}
	// Create shells first so call sites can reference functions that are
	// lowered later (including recursive ones).
	for _, f := range p.Funcs {
		bc.funcs[f] = newShell(f)
	}
	lo := &lowerer{prog: p, bc: bc}
	for _, f := range p.Funcs {
		lo.lowerFunc(f, bc.funcs[f])
	}
	for _, pt := range lo.patches {
		tgt := lo.labels[pt.lbl]
		if tgt < 0 {
			panic("minicuda: internal: unbound bytecode label")
		}
		bc.code[pt.at].aux = tgt
	}
	return bc, true
}

// newShell assigns home registers to every local symbol of f and records
// the parameter and return conventions.
func newShell(f *Function) *bcFunc {
	sh := &bcFunc{name: f.Name, ret: f.Ret, retBank: bankNone,
		varRegs: make([]loc, f.NumSlots)}
	if f.Ret.Kind != KVoid {
		sh.retBank = bankOf(f.Ret)
	}
	for _, s := range f.Syms {
		if s.Kind != SymLocal {
			continue
		}
		var r loc
		switch bankOf(s.Type) {
		case bankF:
			r = loc{bank: bankF, reg: sh.nVarF, home: true}
			sh.nVarF++
		case bankP:
			r = loc{bank: bankP, reg: sh.nVarP, home: true}
			sh.nVarP++
		default:
			r = loc{bank: bankI, reg: sh.nVarI, home: true}
			sh.nVarI++
		}
		sh.varRegs[s.Slot] = r
	}
	sh.params = make([]loc, len(f.Params))
	for i, pd := range f.Params {
		sh.params[i] = sh.varRegs[pd.Sym.Slot]
	}
	return sh
}

func (lo *lowerer) abort(reason string) {
	panic(lowerAbort{reason})
}

// ---- Emission helpers -------------------------------------------------------

func (lo *lowerer) takePend() uint16 {
	p := lo.pend
	lo.pend = 0
	for p > 0xFFFF {
		lo.bc.code = append(lo.bc.code, instr{op: opStep, steps: 0xFFFF})
		p -= 0xFFFF
	}
	return uint16(p)
}

func (lo *lowerer) emit(in instr) int32 {
	in.steps = lo.takePend()
	lo.bc.code = append(lo.bc.code, in)
	return int32(len(lo.bc.code) - 1)
}

func (lo *lowerer) newLabel() int {
	lo.labels = append(lo.labels, -1)
	return len(lo.labels) - 1
}

// bind places a label. Any pending steps are flushed through an opStep
// placed before the label, so jumps to the label never re-charge the
// fall-through path's steps.
func (lo *lowerer) bind(l int) {
	if lo.pend > 0 {
		lo.emit(instr{op: opStep})
	}
	lo.labels[l] = int32(len(lo.bc.code))
}

func (lo *lowerer) jump(op bcOp, bank uint8, cond int32, lbl int) {
	at := lo.emit(instr{op: op, kind: bank, b: cond})
	lo.patches = append(lo.patches, patch{at: at, lbl: lbl})
}

func (lo *lowerer) tempI() loc {
	r := lo.tI
	lo.tI++
	if lo.tI > lo.maxI {
		lo.maxI = lo.tI
	}
	return loc{bank: bankI, reg: r}
}

func (lo *lowerer) tempF() loc {
	r := lo.tF
	lo.tF++
	if lo.tF > lo.maxF {
		lo.maxF = lo.tF
	}
	return loc{bank: bankF, reg: r}
}

func (lo *lowerer) tempP() loc {
	r := lo.tP
	lo.tP++
	if lo.tP > lo.maxP {
		lo.maxP = lo.tP
	}
	return loc{bank: bankP, reg: r}
}

func (lo *lowerer) temp(bank uint8) loc {
	switch bank {
	case bankF:
		return lo.tempF()
	case bankP:
		return lo.tempP()
	}
	return lo.tempI()
}

func (lo *lowerer) resetTemps() {
	lo.tI, lo.tF, lo.tP = lo.fn.nVarI, lo.fn.nVarF, lo.fn.nVarP
}

var movOps = [3]bcOp{bankI: opMovI, bankF: opMovF, bankP: opMovP}

// mov copies src into dst (same bank).
func (lo *lowerer) mov(dst, src loc, alu uint8) {
	lo.emit(instr{op: movOps[src.bank], a: dst.reg, b: src.reg, alu: alu})
}

// toTemp materializes v into a fresh temp of the same bank.
func (lo *lowerer) toTemp(v loc) loc {
	d := lo.temp(v.bank)
	lo.mov(d, v, 0)
	return d
}

// operand lowers e; when hazard is set and the result lives in a variable's
// home register, it is copied to a temp so later sibling writes cannot
// retroactively change the value the tree-walker snapshotted here.
func (lo *lowerer) operand(e Expr, hazard bool) loc {
	v := lo.expr(e)
	if hazard && v.home {
		return lo.toTemp(v)
	}
	return v
}

// writesRegs reports whether evaluating e may write any register (the
// conservative hazard test: assignments and increments anywhere inside).
func writesRegs(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *IntLit, *FloatLit, *BoolLit, *VarRef, *BuiltinVarRef:
		return false
	case *Unary:
		if x.Op == "++" || x.Op == "--" {
			return true
		}
		return writesRegs(x.X)
	case *Postfix:
		return true
	case *Assign:
		return true
	case *Binary:
		return writesRegs(x.L) || writesRegs(x.R)
	case *Ternary:
		return writesRegs(x.Cond) || writesRegs(x.Then) || writesRegs(x.Else)
	case *Index:
		return writesRegs(x.Base) || writesRegs(x.Idx)
	case *Cast:
		return writesRegs(x.X)
	case *Call:
		// A user function body cannot touch caller registers; only the
		// argument expressions can.
		for _, a := range x.Args {
			if writesRegs(a) {
				return true
			}
		}
		return false
	}
	return true
}

func anyWritesRegs(es []Expr) bool {
	for _, e := range es {
		if writesRegs(e) {
			return true
		}
	}
	return false
}

// ---- Conversions ------------------------------------------------------------

// truncIdentity reports whether truncInt to kind `to` is a no-op for a
// register already holding a truncated value of kind `from`.
func truncIdentity(from, to Kind) bool {
	if from == to {
		return true
	}
	switch to {
	case KInt:
		return from == KBool || from == KChar || from == KUChar
	case KUInt:
		return from == KBool || from == KUChar
	case KChar, KUChar:
		return from == KBool
	}
	return false
}

// convertLoc emits the register form of convert(v, to). With alu == 0 and
// an identity conversion the source register is returned unchanged.
func (lo *lowerer) convertLoc(v loc, from, to *Type, alu uint8) loc {
	isPtrLike := from != nil && (from.Kind == KPtr || from.Kind == KArray)
	switch {
	case to.Kind == KPtr:
		if isPtrLike {
			if alu == 0 {
				return v
			}
			d := lo.tempP()
			lo.mov(d, v, alu)
			return d
		}
		d := lo.tempP()
		lo.emit(instr{op: opZeroP, a: d.reg, alu: alu})
		return d
	case to.Kind == KFloat:
		if from != nil && from.Kind == KFloat {
			if alu == 0 {
				return v
			}
			d := lo.tempF()
			lo.emit(instr{op: opF2F, a: d.reg, b: v.reg, alu: alu})
			return d
		}
		d := lo.tempF()
		if isPtrLike {
			// convert(ptr, float): the I payload of a pointer Value is 0.
			lo.emit(instr{op: opLoadKF, a: d.reg, f: 0, alu: alu})
			return d
		}
		lo.emit(instr{op: opI2F, a: d.reg, b: v.reg, alu: alu})
		return d
	default: // integer target (including bool/char and void)
		if from != nil && from.Kind == KFloat {
			d := lo.tempI()
			lo.emit(instr{op: opF2I, a: d.reg, b: v.reg, t: to, alu: alu})
			return d
		}
		if isPtrLike {
			d := lo.tempI()
			lo.emit(instr{op: opLoadKI, a: d.reg, k: 0, alu: alu})
			return d
		}
		if alu == 0 && from != nil && truncIdentity(from.Kind, to.Kind) {
			return v
		}
		d := lo.tempI()
		lo.emit(instr{op: opTruncI, a: d.reg, b: v.reg, t: to, alu: alu})
		return d
	}
}

// rawToI emits the register form of toI(v): int64(F) for floats with no
// 32-bit truncation; pointers read their zero I payload.
func (lo *lowerer) rawToI(v loc, from *Type) loc {
	if from != nil && from.Kind == KFloat {
		d := lo.tempI()
		lo.emit(instr{op: opF2IRaw, a: d.reg, b: v.reg})
		return d
	}
	if v.bank == bankP {
		d := lo.tempI()
		lo.emit(instr{op: opLoadKI, a: d.reg, k: 0})
		return d
	}
	return v
}

// rawToF emits the register form of toF(v): float64(I) exactly, with no
// float32 rounding.
func (lo *lowerer) rawToF(v loc, from *Type) loc {
	if from != nil && from.Kind == KFloat {
		return v
	}
	if v.bank == bankP {
		d := lo.tempF()
		lo.emit(instr{op: opLoadKF, a: d.reg, f: 0})
		return d
	}
	d := lo.tempF()
	lo.emit(instr{op: opI2FRaw, a: d.reg, b: v.reg})
	return d
}

// ---- Functions and statements ----------------------------------------------

func (lo *lowerer) lowerFunc(f *Function, sh *bcFunc) {
	lo.fn = sh
	lo.pend = 0
	lo.maxI, lo.maxF, lo.maxP = sh.nVarI, sh.nVarF, sh.nVarP
	lo.resetTemps()
	sh.entry = int32(len(lo.bc.code))
	// The function body block is entered directly (execBlock), without the
	// execStmt step that nested blocks pay.
	for _, s := range f.Body.Stmts {
		lo.stmt(s)
	}
	// Implicit void return; carries any trailing pending steps.
	lo.emit(instr{op: opRet, kind: bankNone})
	sh.numI, sh.numF, sh.numP = lo.maxI, lo.maxF, lo.maxP
}

func (lo *lowerer) stmt(s Stmt) {
	lo.resetTemps()
	lo.pend++ // the tree-walker's execStmt entry step
	switch st := s.(type) {
	case *Block:
		for _, c := range st.Stmts {
			lo.stmt(c)
		}
	case *EmptyStmt:
	case *DeclStmt:
		for _, d := range st.Decls {
			lo.decl(d)
		}
	case *ExprStmt:
		lo.expr(st.X)
	case *IfStmt:
		cond := lo.expr(st.Cond)
		lEnd := lo.newLabel()
		if st.Else != nil {
			lElse := lo.newLabel()
			lo.jump(opJZ, cond.bank, cond.reg, lElse)
			lo.stmt(st.Then)
			lo.jump(opJmp, 0, 0, lEnd)
			lo.bind(lElse)
			lo.stmt(st.Else)
		} else {
			lo.jump(opJZ, cond.bank, cond.reg, lEnd)
			lo.stmt(st.Then)
		}
		lo.bind(lEnd)
	case *ForStmt:
		if st.Init != nil {
			lo.stmt(st.Init)
		}
		lTop, lCont, lEnd := lo.newLabel(), lo.newLabel(), lo.newLabel()
		lo.bind(lTop)
		if st.Cond != nil {
			lo.resetTemps()
			cond := lo.expr(st.Cond)
			lo.jump(opJZ, cond.bank, cond.reg, lEnd)
		}
		lo.brk = append(lo.brk, lEnd)
		lo.cont = append(lo.cont, lCont)
		lo.stmt(st.Body)
		lo.brk = lo.brk[:len(lo.brk)-1]
		lo.cont = lo.cont[:len(lo.cont)-1]
		lo.bind(lCont)
		if st.Post != nil {
			lo.resetTemps()
			lo.expr(st.Post)
		}
		lo.pend++ // per-iteration loop step
		lo.jump(opJmp, 0, 0, lTop)
		lo.bind(lEnd)
	case *WhileStmt:
		if st.DoFirst {
			lo.lowerDoWhile(st)
			break
		}
		lTop, lCont, lEnd := lo.newLabel(), lo.newLabel(), lo.newLabel()
		lo.bind(lTop)
		lo.resetTemps()
		cond := lo.expr(st.Cond)
		lo.jump(opJZ, cond.bank, cond.reg, lEnd)
		lo.brk = append(lo.brk, lEnd)
		lo.cont = append(lo.cont, lCont)
		lo.stmt(st.Body)
		lo.brk = lo.brk[:len(lo.brk)-1]
		lo.cont = lo.cont[:len(lo.cont)-1]
		lo.bind(lCont)
		lo.pend++ // per-iteration loop step
		lo.jump(opJmp, 0, 0, lTop)
		lo.bind(lEnd)
	case *ReturnStmt:
		if st.X != nil {
			v := lo.expr(st.X)
			cv := lo.convertLoc(v, st.X.ResultType(), lo.fn.ret, 0)
			lo.emit(instr{op: opRet, kind: cv.bank, b: cv.reg})
		} else {
			lo.emit(instr{op: opRet, kind: bankNone})
		}
	case *BreakStmt:
		lo.jump(opJmp, 0, 0, lo.brk[len(lo.brk)-1])
	case *ContinueStmt:
		lo.jump(opJmp, 0, 0, lo.cont[len(lo.cont)-1])
	default:
		lo.abort("unknown statement")
	}
}

// lowerDoWhile flattens do/while. The tree-walker evaluates the condition
// at the loop bottom and again at the loop top of the next iteration (two
// branch charges per continuing iteration); the lowering mirrors that by
// emitting the condition twice.
func (lo *lowerer) lowerDoWhile(st *WhileStmt) {
	lBody, lCont, lEnd := lo.newLabel(), lo.newLabel(), lo.newLabel()
	lo.bind(lBody)
	lo.brk = append(lo.brk, lEnd)
	lo.cont = append(lo.cont, lCont)
	lo.stmt(st.Body)
	lo.brk = lo.brk[:len(lo.brk)-1]
	lo.cont = lo.cont[:len(lo.cont)-1]
	lo.bind(lCont)
	lo.resetTemps()
	cond := lo.expr(st.Cond)
	lo.jump(opJZ, cond.bank, cond.reg, lEnd)
	lo.pend++ // per-iteration loop step
	lo.resetTemps()
	cond2 := lo.expr(st.Cond)
	lo.jump(opJZ, cond2.bank, cond2.reg, lEnd)
	lo.jump(opJmp, 0, 0, lBody)
	lo.bind(lEnd)
}

func (lo *lowerer) decl(d *VarDecl) {
	sym := d.Sym
	if sym.Kind == SymShared {
		return // laid out at compile time
	}
	if sym.Kind != SymLocal {
		lo.abort("bad decl kind")
	}
	t := sym.Type
	home := lo.fn.varRegs[sym.Slot]
	if t.Kind == KArray {
		lo.emit(instr{op: opAllocLocal, a: home.reg, t: t})
		return
	}
	if d.Init != nil {
		v := lo.expr(d.Init)
		cv := lo.convertLoc(v, d.Init.ResultType(), t, 0)
		lo.mov(home, cv, 0)
		return
	}
	switch home.bank {
	case bankF:
		lo.emit(instr{op: opLoadKF, a: home.reg, f: 0})
	case bankP:
		lo.emit(instr{op: opZeroP, a: home.reg})
	default:
		lo.emit(instr{op: opLoadKI, a: home.reg, k: 0})
	}
}

// ---- Lvalues and addresses --------------------------------------------------

// lval mirrors the tree-walker's lvalue: either a home register or a
// pointer held in a register.
type lval struct {
	isReg bool
	reg   loc
	ptr   loc
}

func (lo *lowerer) lvalueOf(e Expr) lval {
	switch x := e.(type) {
	case *VarRef:
		sym := x.Sym
		switch sym.Kind {
		case SymLocal:
			if sym.Type.Kind == KArray {
				lo.abort("assign to array") // sema rejects; keep the oracle
			}
			return lval{isReg: true, reg: lo.fn.varRegs[sym.Slot]}
		case SymShared:
			d := lo.tempP()
			lo.emit(instr{op: opLeaShared, a: d.reg, k: int64(sym.Off)})
			return lval{ptr: d}
		case SymConst:
			d := lo.tempP()
			lo.emit(instr{op: opLeaConst, a: d.reg, k: int64(sym.Off)})
			return lval{ptr: d}
		}
	case *Index:
		base := lo.addr(x.Base)
		if base.home && writesRegs(x.Idx) {
			base = lo.toTemp(base)
		}
		idx := lo.expr(x.Idx)
		elem := x.ResultType()
		d := lo.tempP()
		lo.emit(instr{op: opPAdd, a: d.reg, b: base.reg, c: idx.reg,
			k: int64(elem.Size()), alu: 2})
		return lval{ptr: d}
	case *Unary:
		if x.Op == "*" {
			pv := lo.expr(x.X)
			return lval{ptr: pv}
		}
	}
	lo.abort("expression is not assignable")
	return lval{}
}

// addr mirrors evalAddr: computes the address designated by e. Address
// nodes themselves charge no step (only embedded index/rvalue expressions
// do), matching the tree-walker.
func (lo *lowerer) addr(e Expr) loc {
	t := e.ResultType()
	switch x := e.(type) {
	case *VarRef:
		sym := x.Sym
		switch sym.Kind {
		case SymShared:
			d := lo.tempP()
			lo.emit(instr{op: opLeaShared, a: d.reg, k: int64(sym.Off)})
			return d
		case SymConst:
			d := lo.tempP()
			lo.emit(instr{op: opLeaConst, a: d.reg, k: int64(sym.Off)})
			return d
		case SymLocal:
			if sym.Type.Kind == KArray || sym.Type.Kind == KPtr {
				return lo.fn.varRegs[sym.Slot]
			}
			// Register scalar: the tree-walker traps at run time; callers
			// (only unary &) emit the trap themselves.
			lo.abort("address of register variable")
		}
	case *Index:
		base := lo.addr(x.Base)
		if base.home && writesRegs(x.Idx) {
			base = lo.toTemp(base)
		}
		idx := lo.expr(x.Idx)
		d := lo.tempP()
		lo.emit(instr{op: opPAdd, a: d.reg, b: base.reg, c: idx.reg,
			k: int64(t.Size()), alu: 2})
		return d
	case *Unary:
		if x.Op == "*" {
			return lo.expr(x.X)
		}
	default:
		v := lo.expr(e)
		if v.bank == bankP {
			return v
		}
		lo.abort("expression does not designate storage")
	}
	lo.abort("expression does not designate storage")
	return loc{}
}

// trap emits an unconditional runtime trap carrying err.
func (lo *lowerer) trap(err error) {
	lo.bc.traps = append(lo.bc.traps, err)
	lo.emit(instr{op: opTrap, aux: int32(len(lo.bc.traps) - 1)})
}

// loadEmit loads the scalar of type t at the pointer register p.
func (lo *lowerer) loadEmit(p loc, t *Type) loc {
	d := lo.temp(bankOf(t))
	lo.emit(instr{op: opLoad, a: d.reg, b: p.reg, kind: d.bank, t: t,
		k: int64(t.Size())})
	return d
}

// storeEmit stores v (already converted to t) at the pointer register p.
func (lo *lowerer) storeEmit(p loc, t *Type, v loc) {
	op := opStoreI
	switch v.bank {
	case bankF:
		op = opStoreF
	case bankP:
		op = opStoreP
	}
	lo.emit(instr{op: op, b: p.reg, c: v.reg, t: t, k: int64(t.Size())})
}

// ---- Expressions ------------------------------------------------------------

// expr lowers one expression. Each call adds the eval-entry step the
// tree-walker charges for the node.
func (lo *lowerer) expr(e Expr) loc {
	lo.pend++
	switch x := e.(type) {
	case *IntLit:
		d := lo.tempI()
		lo.emit(instr{op: opLoadKI, a: d.reg, k: truncInt(x.ResultType(), x.Val)})
		return d
	case *FloatLit:
		d := lo.tempF()
		lo.emit(instr{op: opLoadKF, a: d.reg, f: float64(float32(x.Val))})
		return d
	case *BoolLit:
		d := lo.tempI()
		var k int64
		if x.Val {
			k = 1
		}
		lo.emit(instr{op: opLoadKI, a: d.reg, k: k})
		return d
	case *VarRef:
		sym := x.Sym
		switch sym.Kind {
		case SymLocal:
			return lo.fn.varRegs[sym.Slot]
		case SymShared, SymConst:
			op := opLeaShared
			if sym.Kind == SymConst {
				op = opLeaConst
			}
			p := lo.tempP()
			lo.emit(instr{op: op, a: p.reg, k: int64(sym.Off)})
			if sym.Type.Kind == KArray {
				return p
			}
			return lo.loadEmit(p, sym.Type)
		}
	case *BuiltinVarRef:
		d := lo.tempI()
		var base int32
		switch x.Base {
		case "threadIdx":
			base = 0
		case "blockIdx":
			base = 1
		case "blockDim":
			base = 2
		case "gridDim":
			base = 3
		}
		lo.emit(instr{op: opThreadDim, a: d.reg, aux: base*3 + int32(x.Dim)})
		return d
	case *Unary:
		return lo.unary(x)
	case *Postfix:
		return lo.incDec(x.X, x.Op, false)
	case *Binary:
		return lo.binary(x)
	case *Assign:
		return lo.assign(x)
	case *Ternary:
		return lo.ternary(x)
	case *Index:
		t := x.ResultType()
		p := lo.addr(x)
		if t.Kind == KArray {
			return p
		}
		return lo.loadEmit(p, t)
	case *Cast:
		v := lo.expr(x.X)
		return lo.convertLoc(v, x.X.ResultType(), x.To, 1)
	case *Call:
		if x.Fn != nil {
			return lo.userCall(x)
		}
		return lo.builtin(x)
	}
	lo.abort("unknown expression")
	return loc{}
}

func (lo *lowerer) unary(x *Unary) loc {
	t := x.ResultType()
	switch x.Op {
	case "+":
		v := lo.expr(x.X)
		return lo.convertLoc(v, x.X.ResultType(), t, 1)
	case "-":
		v := lo.expr(x.X)
		if t.Kind == KFloat {
			f := lo.rawToF(v, x.X.ResultType())
			d := lo.tempF()
			lo.emit(instr{op: opNegF, a: d.reg, b: f.reg, alu: 1})
			return d
		}
		i := lo.rawToI(v, x.X.ResultType())
		d := lo.tempI()
		lo.emit(instr{op: opNegI, a: d.reg, b: i.reg, t: t, alu: 1})
		return d
	case "!":
		v := lo.expr(x.X)
		d := lo.tempI()
		op := opLNotI
		switch v.bank {
		case bankF:
			op = opLNotF
		case bankP:
			op = opLNotP
		}
		lo.emit(instr{op: op, a: d.reg, b: v.reg, alu: 1})
		return d
	case "~":
		v := lo.expr(x.X)
		i := lo.rawToI(v, x.X.ResultType())
		d := lo.tempI()
		lo.emit(instr{op: opNotI, a: d.reg, b: i.reg, t: t, alu: 1})
		return d
	case "*":
		// Deref rvalue: evalAddr on the unary resolves to eval(x.X).
		p := lo.expr(x.X)
		if t.Kind == KArray {
			return p
		}
		return lo.loadEmit(p, t)
	case "&":
		if vr, isVar := x.X.(*VarRef); isVar && vr.Sym.Kind == SymLocal &&
			vr.Sym.Type.Kind != KArray && vr.Sym.Type.Kind != KPtr {
			// Address of a register scalar: the tree-walker's evalAddr
			// fails, the lvalue fallback is a slot, and it traps.
			lo.trap(errAt(x.Tok(), "cannot take the address of this expression"))
			return lo.tempP() // unreachable at run time
		}
		return lo.addr(x.X)
	case "++", "--":
		return lo.incDec(x.X, x.Op, true)
	}
	lo.abort("unsupported unary")
	return loc{}
}

// incDec lowers ++/-- (prefix returns the new value, postfix the old).
func (lo *lowerer) incDec(operand Expr, op string, prefix bool) loc {
	lv := lo.lvalueOf(operand)
	t := operand.ResultType()
	delta := int64(1)
	if op == "--" {
		delta = -1
	}
	if lv.isReg {
		home := lv.reg
		var oldCopy loc
		if !prefix {
			oldCopy = lo.toTemp(home)
		}
		switch t.Kind {
		case KFloat:
			lo.emit(instr{op: opAddKF, a: home.reg, b: home.reg,
				f: float64(delta), alu: 1})
		case KPtr:
			lo.emit(instr{op: opPAddK, a: home.reg, b: home.reg,
				k: delta * int64(t.Elem.Size()), alu: 1})
		default:
			lo.emit(instr{op: opAddKI, a: home.reg, b: home.reg,
				k: delta, t: t, alu: 1})
		}
		if prefix {
			return home
		}
		return oldCopy
	}
	old := lo.loadEmit(lv.ptr, t)
	nv := lo.temp(old.bank)
	switch t.Kind {
	case KFloat:
		lo.emit(instr{op: opAddKF, a: nv.reg, b: old.reg, f: float64(delta), alu: 1})
	case KPtr:
		lo.emit(instr{op: opPAddK, a: nv.reg, b: old.reg,
			k: delta * int64(t.Elem.Size()), alu: 1})
	default:
		lo.emit(instr{op: opAddKI, a: nv.reg, b: old.reg, k: delta, t: t, alu: 1})
	}
	lo.storeEmit(lv.ptr, t, nv)
	if prefix {
		return nv
	}
	return old
}

var intBinOps = map[string]bcOp{
	"+": opAddI, "-": opSubI, "*": opMulI, "&": opAndI, "|": opOrI,
	"^": opXorI, "<<": opShlI,
}

// intBinOp emits an integer arithmetic op with result type t (matching
// evalBinary's intValue(t, ...) truncation and signedness selection).
func (lo *lowerer) intBinOp(op string, t *Type, l, r loc, alu uint8) loc {
	unsigned := t.Kind == KUInt || t.Kind == KUChar
	var bop bcOp
	switch op {
	case "/":
		bop = opDivI
		if unsigned {
			bop = opDivU
		}
	case "%":
		bop = opModI
		if unsigned {
			bop = opModU
		}
	case ">>":
		bop = opShrI
		if unsigned {
			bop = opShrU
		}
	default:
		var known bool
		bop, known = intBinOps[op]
		if !known {
			lo.abort("invalid integer operator")
		}
	}
	d := lo.tempI()
	lo.emit(instr{op: bop, a: d.reg, b: l.reg, c: r.reg, t: t, alu: alu})
	return d
}

// compoundIntBinOp mirrors evalAssign's compound integer arithmetic, which
// is always-signed int64 for / and % (unlike plain binary operators) and a
// plain int64 shift for >> (equivalent to the unsigned selection only
// because stored unsigned values are non-negative and below 2^32).
func (lo *lowerer) compoundIntBinOp(op string, t *Type, l, r loc) loc {
	var bop bcOp
	switch op {
	case "/":
		bop = opDivI
	case "%":
		bop = opModI
	case ">>":
		bop = opShrI
		if t.Kind == KUInt {
			bop = opShrU
		}
	default:
		var known bool
		bop, known = intBinOps[op]
		if !known {
			lo.abort("invalid compound operator")
		}
	}
	d := lo.tempI()
	lo.emit(instr{op: bop, a: d.reg, b: l.reg, c: r.reg, t: t, alu: 1})
	return d
}

var floatBinOps = map[string]bcOp{"+": opAddF, "-": opSubF, "*": opMulF, "/": opDivF}

func (lo *lowerer) floatBinOp(op string, l, r loc, alu uint8) loc {
	bop, known := floatBinOps[op]
	if !known {
		lo.abort("invalid float operator")
	}
	d := lo.tempF()
	lo.emit(instr{op: bop, a: d.reg, b: l.reg, c: r.reg, alu: alu})
	return d
}

func (lo *lowerer) binary(x *Binary) loc {
	switch x.Op {
	case "&&":
		d := lo.tempI()
		l := lo.expr(x.L)
		lFalse, lEnd := lo.newLabel(), lo.newLabel()
		lo.jump(opJZ, l.bank, l.reg, lFalse)
		r := lo.expr(x.R)
		lo.emit(instr{op: truthyOp(r.bank), a: d.reg, b: r.reg})
		lo.jump(opJmp, 0, 0, lEnd)
		lo.bind(lFalse)
		lo.emit(instr{op: opLoadKI, a: d.reg, k: 0})
		lo.bind(lEnd)
		return d
	case "||":
		d := lo.tempI()
		l := lo.expr(x.L)
		lTrue, lEnd := lo.newLabel(), lo.newLabel()
		lo.jump(opJNZ, l.bank, l.reg, lTrue)
		r := lo.expr(x.R)
		lo.emit(instr{op: truthyOp(r.bank), a: d.reg, b: r.reg})
		lo.jump(opJmp, 0, 0, lEnd)
		lo.bind(lTrue)
		lo.emit(instr{op: opLoadKI, a: d.reg, k: 1})
		lo.bind(lEnd)
		return d
	case ",":
		lo.expr(x.L)
		return lo.expr(x.R)
	}

	l := lo.operand(x.L, writesRegs(x.R))
	r := lo.expr(x.R)
	lt, rt := x.L.ResultType(), x.R.ResultType()

	// Pointer arithmetic and comparison (dispatch on static types, as the
	// tree-walker dispatches on the evaluated types).
	if lt != nil && (lt.Kind == KPtr || lt.Kind == KArray) {
		switch x.Op {
		case "+", "-":
			if rt != nil && rt.Kind == KPtr {
				d := lo.tempI()
				lo.emit(instr{op: opPDiff, a: d.reg, b: l.reg, c: r.reg,
					k: int64(lt.Elem.Size()), alu: 1})
				return d
			}
			ri := lo.rawToI(r, rt)
			sz := int64(elemSizeOf(lt))
			if x.Op == "-" {
				sz = -sz
			}
			d := lo.tempP()
			lo.emit(instr{op: opPAdd, a: d.reg, b: l.reg, c: ri.reg, k: sz, alu: 1})
			return d
		case "==", "!=", "<", "<=", ">", ">=":
			d := lo.tempI()
			lo.emit(instr{op: opCmpP, a: d.reg, b: l.reg, c: r.reg,
				aux: cmpCodes[x.Op], alu: 1})
			return d
		}
	}
	if rt != nil && rt.Kind == KPtr && x.Op == "+" {
		li := lo.rawToI(l, lt)
		d := lo.tempP()
		lo.emit(instr{op: opPAdd, a: d.reg, b: r.reg, c: li.reg,
			k: int64(rt.Elem.Size()), alu: 1})
		return d
	}

	switch x.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		ct := commonType(lt, rt)
		d := lo.tempI()
		if ct.Kind == KFloat {
			lf, rf := lo.rawToF(l, lt), lo.rawToF(r, rt)
			lo.emit(instr{op: opCmpF, a: d.reg, b: lf.reg, c: rf.reg,
				aux: cmpCodes[x.Op], alu: 1})
		} else if ct.Kind == KUInt {
			li, ri := lo.rawToI(l, lt), lo.rawToI(r, rt)
			lo.emit(instr{op: opCmpU, a: d.reg, b: li.reg, c: ri.reg,
				aux: cmpCodes[x.Op], alu: 1})
		} else {
			li, ri := lo.rawToI(l, lt), lo.rawToI(r, rt)
			lo.emit(instr{op: opCmpI, a: d.reg, b: li.reg, c: ri.reg,
				aux: cmpCodes[x.Op], alu: 1})
		}
		return d
	}

	t := x.ResultType()
	if t.Kind == KFloat {
		lf, rf := lo.rawToF(l, lt), lo.rawToF(r, rt)
		return lo.floatBinOp(x.Op, lf, rf, 1)
	}
	li, ri := lo.rawToI(l, lt), lo.rawToI(r, rt)
	return lo.intBinOp(x.Op, t, li, ri, 1)
}

func truthyOp(bank uint8) bcOp {
	switch bank {
	case bankF:
		return opTruthyF
	case bankP:
		return opTruthyP
	}
	return opTruthyI
}

func (lo *lowerer) assign(x *Assign) loc {
	lv := lo.lvalueOf(x.L)
	t := x.L.ResultType()
	rt := x.R.ResultType()
	if x.Op == "=" {
		r := lo.expr(x.R)
		cv := lo.convertLoc(r, rt, t, 0)
		if lv.isReg {
			if cv.bank != lv.reg.bank || cv.reg != lv.reg.reg {
				lo.mov(lv.reg, cv, 0)
			}
			return lv.reg
		}
		lo.storeEmit(lv.ptr, t, cv)
		return cv
	}
	// Compound assignment: load old, evaluate rhs, combine, store back.
	var old loc
	if lv.isReg {
		old = lv.reg
		if writesRegs(x.R) {
			old = lo.toTemp(old)
		}
	} else {
		old = lo.loadEmit(lv.ptr, t)
	}
	r := lo.expr(x.R)
	op := x.Op[:len(x.Op)-1]
	var nv loc
	switch t.Kind {
	case KPtr:
		ri := lo.rawToI(r, rt)
		sz := int64(t.Elem.Size())
		if op == "-" {
			sz = -sz
		}
		nv = lo.tempP()
		lo.emit(instr{op: opPAdd, a: nv.reg, b: old.reg, c: ri.reg, k: sz, alu: 1})
	case KFloat:
		rf := lo.rawToF(r, rt)
		nv = lo.floatBinOp(op, old, rf, 1)
	default:
		ri := lo.rawToI(r, rt)
		nv = lo.compoundIntBinOp(op, t, old, ri)
	}
	if lv.isReg {
		lo.mov(lv.reg, nv, 0)
		return lv.reg
	}
	lo.storeEmit(lv.ptr, t, nv)
	return nv
}

func (lo *lowerer) ternary(x *Ternary) loc {
	t := x.ResultType()
	d := lo.temp(bankOf(t))
	cond := lo.expr(x.Cond)
	lElse, lEnd := lo.newLabel(), lo.newLabel()
	lo.jump(opJZ, cond.bank, cond.reg, lElse)
	tv := lo.expr(x.Then)
	if t.IsScalar() {
		tv = lo.convertLoc(tv, x.Then.ResultType(), t, 0)
	}
	lo.mov(d, tv, 0)
	lo.jump(opJmp, 0, 0, lEnd)
	lo.bind(lElse)
	ev := lo.expr(x.Else)
	if t.IsScalar() {
		ev = lo.convertLoc(ev, x.Else.ResultType(), t, 0)
	}
	lo.mov(d, ev, 0)
	lo.bind(lEnd)
	return d
}

func (lo *lowerer) userCall(x *Call) loc {
	tgt := lo.bc.funcs[x.Fn]
	if tgt == nil {
		lo.abort("call target not lowered")
	}
	lo.emit(instr{op: opCheckDepth})
	moves := make([]argMove, len(x.Args))
	for i, a := range x.Args {
		hazard := anyWritesRegs(x.Args[i+1:])
		v := lo.operand(a, hazard)
		cv := lo.convertLoc(v, a.ResultType(), x.Fn.Params[i].Type, 0)
		moves[i] = argMove{bank: cv.bank, src: cv.reg, dst: tgt.params[i].reg}
	}
	dst := loc{bank: bankNone}
	if tgt.retBank != bankNone {
		dst = lo.temp(tgt.retBank)
	}
	lo.bc.calls = append(lo.bc.calls, &callSpec{target: tgt, moves: moves, dst: dst})
	lo.emit(instr{op: opCall, aux: int32(len(lo.bc.calls) - 1)})
	return dst
}

// Builtin ids for opWorkItem.
const (
	wiGlobalID int32 = iota
	wiLocalID
	wiGroupID
	wiLocalSize
	wiNumGroups
	wiGlobalSize
)

var workItemIDs = map[string]int32{
	"get_global_id": wiGlobalID, "get_local_id": wiLocalID,
	"get_group_id": wiGroupID, "get_local_size": wiLocalSize,
	"get_num_groups": wiNumGroups, "get_global_size": wiGlobalSize,
}

var specialOps = map[string]bcOp{
	"sqrtf": opSqrt, "rsqrtf": opRsqrt, "expf": opExp, "logf": opLog,
	"powf": opPow, "sinf": opSin, "cosf": opCos,
}

func (lo *lowerer) builtin(x *Call) loc {
	args := make([]loc, len(x.Args))
	for i, a := range x.Args {
		args[i] = lo.operand(a, anyWritesRegs(x.Args[i+1:]))
	}
	at := func(i int) *Type { return x.Args[i].ResultType() }
	switch x.Builtin {
	case "__syncthreads", "barrier":
		lo.emit(instr{op: opSync})
		return loc{bank: bankNone}
	case "__threadfence":
		return loc{bank: bankNone}
	case "atomicAdd", "atomicSub", "atomicMax", "atomicMin", "atomicExch", "atomicCAS":
		elem := x.ResultType()
		var val loc
		if elem.Kind == KFloat && (x.Builtin == "atomicAdd" || x.Builtin == "atomicSub" ||
			x.Builtin == "atomicExch") {
			val = lo.rawToF(args[1], at(1))
		} else {
			val = lo.rawToI(args[1], at(1))
		}
		spec := &atomSpec{tok: x.Tok(), name: x.Builtin, elem: elem}
		if x.Builtin == "atomicCAS" {
			v2 := lo.rawToI(args[2], at(2))
			spec.val2 = v2.reg
		}
		d := lo.temp(bankOf(elem))
		lo.bc.atomics = append(lo.bc.atomics, spec)
		lo.emit(instr{op: opAtomic, a: d.reg, b: args[0].reg, c: val.reg,
			kind: d.bank, aux: int32(len(lo.bc.atomics) - 1)})
		return d
	case "get_global_id", "get_local_id", "get_group_id",
		"get_local_size", "get_num_groups", "get_global_size":
		dim := lo.rawToI(args[0], at(0))
		d := lo.tempI()
		lo.emit(instr{op: opWorkItem, a: d.reg, b: dim.reg, aux: workItemIDs[x.Builtin]})
		return d
	case "min", "max":
		t := x.ResultType()
		if t.Kind == KFloat {
			a, b := lo.rawToF(args[0], at(0)), lo.rawToF(args[1], at(1))
			op := opMinF
			if x.Builtin == "max" {
				op = opMaxF
			}
			d := lo.tempF()
			lo.emit(instr{op: op, a: d.reg, b: a.reg, c: b.reg, alu: 1})
			return d
		}
		a, b := lo.rawToI(args[0], at(0)), lo.rawToI(args[1], at(1))
		op := opMinI
		if x.Builtin == "max" {
			op = opMaxI
		}
		d := lo.tempI()
		lo.emit(instr{op: op, a: d.reg, b: a.reg, c: b.reg, t: t, alu: 1})
		return d
	case "abs":
		v := lo.rawToI(args[0], at(0))
		d := lo.tempI()
		lo.emit(instr{op: opAbsI, a: d.reg, b: v.reg, alu: 1})
		return d
	case "fminf", "fmaxf":
		a, b := lo.rawToF(args[0], at(0)), lo.rawToF(args[1], at(1))
		op := opMinF
		if x.Builtin == "fmaxf" {
			op = opMaxF
		}
		d := lo.tempF()
		lo.emit(instr{op: op, a: d.reg, b: a.reg, c: b.reg, alu: 1})
		return d
	case "fabsf", "floorf", "ceilf":
		v := lo.rawToF(args[0], at(0))
		var op bcOp
		switch x.Builtin {
		case "fabsf":
			op = opFAbsF
		case "floorf":
			op = opFloor
		default:
			op = opCeil
		}
		d := lo.tempF()
		lo.emit(instr{op: op, a: d.reg, b: v.reg, alu: 1})
		return d
	case "sqrtf", "rsqrtf", "expf", "logf", "sinf", "cosf":
		v := lo.rawToF(args[0], at(0))
		d := lo.tempF()
		lo.emit(instr{op: specialOps[x.Builtin], a: d.reg, b: v.reg})
		return d
	case "powf":
		a, b := lo.rawToF(args[0], at(0)), lo.rawToF(args[1], at(1))
		d := lo.tempF()
		lo.emit(instr{op: opPow, a: d.reg, b: a.reg, c: b.reg})
		return d
	}
	lo.abort("unimplemented builtin")
	return loc{}
}
