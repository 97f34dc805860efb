package minicuda

import "fmt"

// Analyze resolves names, checks types, assigns frame slots, and lays out
// __shared__ and __constant__ memory. On success the program is executable.
func Analyze(prog *Program) error {
	a := &analyzer{prog: prog}
	prog.kernels = map[string]*Function{}
	prog.functions = map[string]*Function{}
	prog.constVars = map[string]*Symbol{}

	for _, f := range prog.Funcs {
		if _, dup := prog.functions[f.Name]; dup {
			return errAt(f.Tok(), "redefinition of function %q", f.Name)
		}
		prog.functions[f.Name] = f
		if f.IsKernel {
			if f.Ret.Kind != KVoid {
				return errAt(f.Tok(), "kernel %q must return void", f.Name)
			}
			prog.kernels[f.Name] = f
		}
	}

	// Lay out file-scope __constant__ variables.
	off := 0
	for _, g := range prog.Globals {
		t := g.Decl.Type
		if t.Kind == KPtr {
			return errAt(g.Decl.Tok(), "__constant__ pointer variables are not supported")
		}
		off = align(off, 4)
		sym := &Symbol{Name: g.Decl.Name, Kind: SymConst, Type: markSpace(t, SpaceConst), Off: off}
		if _, dup := prog.constVars[g.Decl.Name]; dup {
			return errAt(g.Decl.Tok(), "redefinition of %q", g.Decl.Name)
		}
		prog.constVars[g.Decl.Name] = sym
		g.Decl.Sym = sym
		off += t.Size()
	}
	prog.constSize = off

	for _, f := range prog.Funcs {
		if err := a.analyzeFunc(f); err != nil {
			return err
		}
	}
	if len(prog.kernels) == 0 {
		return &CompileError{Line: 1, Col: 1,
			Msg: fmt.Sprintf("no %s entry point found", kernelWord(prog.Dialect))}
	}
	return nil
}

func kernelWord(d Dialect) string {
	if d == DialectOpenCL {
		return "__kernel function"
	}
	return "__global__ kernel"
}

func align(off, a int) int { return (off + a - 1) / a * a }

type analyzer struct {
	prog   *Program
	fn     *Function
	scopes []map[string]*Symbol
	loop   int
}

func (a *analyzer) push() { a.scopes = append(a.scopes, map[string]*Symbol{}) }
func (a *analyzer) pop()  { a.scopes = a.scopes[:len(a.scopes)-1] }

func (a *analyzer) declare(tok Token, sym *Symbol) error {
	top := a.scopes[len(a.scopes)-1]
	if _, dup := top[sym.Name]; dup {
		return errAt(tok, "redeclaration of %q", sym.Name)
	}
	top[sym.Name] = sym
	a.fn.Syms = append(a.fn.Syms, sym)
	return nil
}

func (a *analyzer) lookup(name string) *Symbol {
	for i := len(a.scopes) - 1; i >= 0; i-- {
		if s, ok := a.scopes[i][name]; ok {
			return s
		}
	}
	if s, ok := a.prog.constVars[name]; ok {
		return s
	}
	return nil
}

// openclConstants are the predefined barrier-fence flags of OpenCL C;
// their values mirror cl.h. They resolve only in the OpenCL dialect.
var openclConstants = map[string]int64{
	"CLK_LOCAL_MEM_FENCE":  1 << 0,
	"CLK_GLOBAL_MEM_FENCE": 1 << 1,
}

func (a *analyzer) newSlot(name string, t *Type, isArg bool) *Symbol {
	s := &Symbol{Name: name, Kind: SymLocal, Type: t, Slot: a.fn.NumSlots, IsArg: isArg}
	a.fn.NumSlots++
	return s
}

func (a *analyzer) analyzeFunc(f *Function) error {
	a.fn = f
	a.scopes = nil
	a.loop = 0
	a.push()
	defer a.pop()
	for _, p := range f.Params {
		if p.Type.Kind == KArray {
			return errAt(p.Tok(), "array parameters are not supported; pass a pointer")
		}
		if p.Type.Kind == KVoid {
			return errAt(p.Tok(), "parameter %q has void type", p.Name)
		}
		sym := a.newSlot(p.Name, p.Type, true)
		p.Sym = sym
		if err := a.declare(p.Tok(), sym); err != nil {
			return err
		}
	}
	return a.stmt(f.Body)
}

func (a *analyzer) stmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		a.push()
		defer a.pop()
		for _, x := range st.Stmts {
			if err := a.stmt(x); err != nil {
				return err
			}
		}
		return nil
	case *DeclStmt:
		for _, d := range st.Decls {
			if err := a.varDecl(d); err != nil {
				return err
			}
		}
		return nil
	case *ExprStmt:
		_, err := a.expr(st.X)
		return err
	case *IfStmt:
		if _, err := a.expr(st.Cond); err != nil {
			return err
		}
		if err := a.stmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return a.stmt(st.Else)
		}
		return nil
	case *ForStmt:
		a.push()
		defer a.pop()
		if st.Init != nil {
			if err := a.stmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if _, err := a.expr(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if _, err := a.expr(st.Post); err != nil {
				return err
			}
		}
		a.loop++
		defer func() { a.loop-- }()
		return a.stmt(st.Body)
	case *WhileStmt:
		if _, err := a.expr(st.Cond); err != nil {
			return err
		}
		a.loop++
		defer func() { a.loop-- }()
		return a.stmt(st.Body)
	case *ReturnStmt:
		if st.X == nil {
			if a.fn.Ret.Kind != KVoid {
				return errAt(st.Tok(), "non-void function %q must return a value", a.fn.Name)
			}
			return nil
		}
		if a.fn.Ret.Kind == KVoid {
			return errAt(st.Tok(), "void function %q cannot return a value", a.fn.Name)
		}
		t, err := a.expr(st.X)
		if err != nil {
			return err
		}
		if !convertible(t, a.fn.Ret) {
			return errAt(st.Tok(), "cannot return %s from function returning %s", t, a.fn.Ret)
		}
		return nil
	case *BreakStmt:
		if a.loop == 0 {
			return errAt(st.Tok(), "break outside of a loop")
		}
		return nil
	case *ContinueStmt:
		if a.loop == 0 {
			return errAt(st.Tok(), "continue outside of a loop")
		}
		return nil
	case *EmptyStmt:
		return nil
	}
	return errAt(s.Tok(), "internal: unknown statement")
}

func (a *analyzer) varDecl(d *VarDecl) error {
	t := d.Type
	if t.Kind == KVoid {
		return errAt(d.Tok(), "variable %q has void type", d.Name)
	}
	switch {
	case t.Kind == KArray && (t.Space == SpaceShared || d.Shared):
		a.fn.SharedUse = align(a.fn.SharedUse, 4)
		sym := &Symbol{Name: d.Name, Kind: SymShared, Type: t, Off: a.fn.SharedUse}
		a.fn.SharedUse += align(t.Size(), 4)
		d.Sym = sym
		if d.Init != nil {
			return errAt(d.Tok(), "__shared__ variables cannot have initializers")
		}
		return a.declare(d.Tok(), sym)
	case d.Shared && t.Kind != KArray && t.Kind != KPtr:
		// __shared__ scalar: lay out like a 1-element array.
		a.fn.SharedUse = align(a.fn.SharedUse, 4)
		sym := &Symbol{Name: d.Name, Kind: SymShared, Type: t, Off: a.fn.SharedUse}
		a.fn.SharedUse += 4
		d.Sym = sym
		if d.Init != nil {
			return errAt(d.Tok(), "__shared__ variables cannot have initializers")
		}
		return a.declare(d.Tok(), sym)
	default:
		sym := a.newSlot(d.Name, t, false)
		d.Sym = sym
		if d.Init != nil {
			it, err := a.expr(d.Init)
			if err != nil {
				return err
			}
			if !convertible(it, t) {
				return errAt(d.Tok(), "cannot initialize %s with %s", t, it)
			}
		}
		return a.declare(d.Tok(), sym)
	}
}

// convertible reports whether a value of type from may be implicitly
// converted to type to.
func convertible(from, to *Type) bool {
	if from == nil || to == nil {
		return false
	}
	if from.IsScalar() && to.IsScalar() {
		return true
	}
	if from.Kind == KPtr && to.Kind == KPtr {
		return from.Elem.Equal(to.Elem) || from.Elem.Kind == KVoid || to.Elem.Kind == KVoid
	}
	if from.Kind == KArray && to.Kind == KPtr {
		return from.Elem.Equal(to.Elem) // array decay
	}
	return false
}

func (a *analyzer) expr(e Expr) (*Type, error) {
	switch x := e.(type) {
	case *IntLit:
		x.box()
		return e.ResultType(), nil
	case *FloatLit:
		x.box()
		return e.ResultType(), nil
	case *BoolLit:
		x.box()
		return e.ResultType(), nil
	case *VarRef:
		if isBuiltinDim3(x.Name) {
			return nil, errAt(x.Tok(), "%s must be accessed with .x/.y/.z", x.Name)
		}
		sym := a.lookup(x.Name)
		if sym == nil {
			return nil, errAt(x.Tok(), "use of undeclared identifier %q", x.Name)
		}
		x.Sym = sym
		x.typ = sym.Type
		return sym.Type, nil
	case *BuiltinVarRef:
		x.typ = TypeInt
		x.baseID, _ = builtinBaseID(x.Base) // the parser admits no other base
		return TypeInt, nil
	case *Unary:
		t, err := a.expr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "+", "-":
			if !t.IsScalar() {
				return nil, errAt(x.Tok(), "invalid operand type %s to unary %s", t, x.Op)
			}
			x.typ = promote(t)
		case "!":
			x.typ = TypeInt
		case "~":
			if !t.IsInteger() {
				return nil, errAt(x.Tok(), "operand of ~ must be an integer, got %s", t)
			}
			x.typ = promote(t)
		case "*":
			if t.Kind != KPtr {
				return nil, errAt(x.Tok(), "cannot dereference non-pointer type %s", t)
			}
			if !isLvalue(x.X) && !isPointerValued(x.X) {
				return nil, errAt(x.Tok(), "invalid dereference")
			}
			x.typ = t.Elem
		case "&":
			if !isLvalue(x.X) {
				return nil, errAt(x.Tok(), "cannot take the address of an rvalue")
			}
			x.typ = PtrTo(t, spaceOf(t, x.X))
		case "++", "--":
			if !isLvalue(x.X) {
				return nil, errAt(x.Tok(), "operand of %s must be an lvalue", x.Op)
			}
			x.typ = t
		default:
			return nil, errAt(x.Tok(), "unsupported unary operator %q", x.Op)
		}
		return x.typ, nil
	case *Postfix:
		t, err := a.expr(x.X)
		if err != nil {
			return nil, err
		}
		if !isLvalue(x.X) {
			return nil, errAt(x.Tok(), "operand of %s must be an lvalue", x.Op)
		}
		if !t.IsScalar() && t.Kind != KPtr {
			return nil, errAt(x.Tok(), "invalid operand type %s to %s", t, x.Op)
		}
		x.typ = t
		return t, nil
	case *Binary:
		lt, err := a.expr(x.L)
		if err != nil {
			return nil, err
		}
		rt, err := a.expr(x.R)
		if err != nil {
			return nil, err
		}
		return a.binaryType(x, lt, rt)
	case *Assign:
		lt, err := a.expr(x.L)
		if err != nil {
			return nil, err
		}
		if !isLvalue(x.L) || lt.Kind == KArray {
			return nil, errAt(x.Tok(), "left side of %s is not assignable", x.Op)
		}
		rt, err := a.expr(x.R)
		if err != nil {
			return nil, err
		}
		if x.Op == "=" {
			if !convertible(rt, lt) {
				return nil, errAt(x.Tok(), "cannot assign %s to %s", rt, lt)
			}
		} else {
			if lt.Kind == KPtr {
				if !(x.Op == "+=" || x.Op == "-=") || !rt.IsInteger() {
					return nil, errAt(x.Tok(), "invalid pointer compound assignment")
				}
			} else if !lt.IsScalar() || !rt.IsScalar() {
				return nil, errAt(x.Tok(), "invalid operands %s %s %s", lt, x.Op, rt)
			}
		}
		x.typ = lt
		return lt, nil
	case *Ternary:
		if _, err := a.expr(x.Cond); err != nil {
			return nil, err
		}
		tt, err := a.expr(x.Then)
		if err != nil {
			return nil, err
		}
		et, err := a.expr(x.Else)
		if err != nil {
			return nil, err
		}
		switch {
		case tt.IsScalar() && et.IsScalar():
			x.typ = commonType(tt, et)
		case tt.Kind == KPtr && et.Kind == KPtr:
			x.typ = tt
		default:
			return nil, errAt(x.Tok(), "incompatible ternary branches %s and %s", tt, et)
		}
		return x.typ, nil
	case *Index:
		bt, err := a.expr(x.Base)
		if err != nil {
			return nil, err
		}
		it, err := a.expr(x.Idx)
		if err != nil {
			return nil, err
		}
		if !it.IsInteger() {
			return nil, errAt(x.Tok(), "array subscript must be an integer, got %s", it)
		}
		switch bt.Kind {
		case KPtr, KArray:
			x.typ = bt.Elem
			return bt.Elem, nil
		}
		return nil, errAt(x.Tok(), "subscripted value %s is not a pointer or array", bt)
	case *Cast:
		if _, err := a.expr(x.X); err != nil {
			return nil, err
		}
		x.typ = x.To
		return x.To, nil
	case *Call:
		return a.call(x)
	}
	return nil, errAt(e.Tok(), "internal: unknown expression")
}

func promote(t *Type) *Type {
	switch t.Kind {
	case KBool, KChar, KInt:
		return TypeInt
	case KUChar, KUInt:
		if t.Kind == KUInt {
			return TypeUInt
		}
		return TypeInt
	}
	return t
}

func (a *analyzer) binaryType(x *Binary, lt, rt *Type) (*Type, error) {
	op := x.Op
	switch op {
	case ",":
		x.typ = rt
		return rt, nil
	case "==", "!=", "<", "<=", ">", ">=":
		if lt.Kind == KPtr && rt.Kind == KPtr {
			x.typ = TypeInt
			return TypeInt, nil
		}
		if !lt.IsScalar() || !rt.IsScalar() {
			return nil, errAt(x.Tok(), "invalid comparison between %s and %s", lt, rt)
		}
		x.typ = TypeInt
		return TypeInt, nil
	case "&&", "||":
		x.typ = TypeInt
		return TypeInt, nil
	case "&", "|", "^", "<<", ">>", "%":
		if !lt.IsInteger() || !rt.IsInteger() {
			return nil, errAt(x.Tok(), "operands of %s must be integers (%s, %s)", op, lt, rt)
		}
		x.typ = commonType(lt, rt)
		return x.typ, nil
	case "+", "-":
		if lt.Kind == KPtr && rt.IsInteger() {
			x.typ = lt
			return lt, nil
		}
		if op == "+" && lt.IsInteger() && rt.Kind == KPtr {
			x.typ = rt
			return rt, nil
		}
		if op == "-" && lt.Kind == KPtr && rt.Kind == KPtr {
			x.typ = TypeInt
			return TypeInt, nil
		}
		if lt.Kind == KArray && rt.IsInteger() {
			x.typ = PtrTo(lt.Elem, lt.Space)
			return x.typ, nil
		}
		fallthrough
	case "*", "/":
		if !lt.IsScalar() || !rt.IsScalar() {
			return nil, errAt(x.Tok(), "invalid operands to %s (%s and %s)", op, lt, rt)
		}
		x.typ = commonType(lt, rt)
		return x.typ, nil
	}
	return nil, errAt(x.Tok(), "unsupported operator %q", op)
}

func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *VarRef:
		return true
	case *Index:
		return true
	case *Unary:
		return x.Op == "*"
	}
	return false
}

func isPointerValued(e Expr) bool {
	t := e.ResultType()
	return t != nil && t.Kind == KPtr
}

func spaceOf(t *Type, e Expr) MemSpace {
	if t.Kind == KArray || t.Kind == KPtr {
		return t.Space
	}
	if vr, ok := e.(*VarRef); ok && vr.Sym != nil {
		switch vr.Sym.Kind {
		case SymShared:
			return SpaceShared
		case SymConst:
			return SpaceConst
		}
	}
	return SpaceLocal
}
