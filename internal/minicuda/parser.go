package minicuda

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse preprocesses, lexes, and parses source in the given dialect,
// returning an unresolved Program (run Analyze to complete compilation, or
// use Compile which does both).
func Parse(src string, dialect Dialect) (*Program, error) {
	pp, err := Preprocess(src)
	if err != nil {
		return nil, err
	}
	toks, err := Lex(pp)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, dialect: dialect}
	return p.parseProgram()
}

type parser struct {
	toks    []Token
	pos     int
	dialect Dialect
}

func (p *parser) cur() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(text string) bool {
	if p.cur().Kind != TokEOF && p.cur().Text == text {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(text string) (Token, error) {
	t := p.cur()
	if t.Text != text {
		return t, errAt(t, "expected %q, found %s", text, t)
	}
	p.next()
	return t, nil
}

// qualifier sets gathered before a declaration.
type quals struct {
	kernel   bool // __global__ (CUDA) or __kernel (OpenCL)
	device   bool
	shared   bool // __shared__ or __local
	constant bool // __constant__
	isConst  bool // const
}

var genericQualWords = map[string]string{
	"__restrict__": "restrict", "static": "static", "inline": "inline",
	"extern": "extern", "const": "const",
}

var cudaQualWords = map[string]string{
	"__global__": "kernel", "__device__": "device", "__host__": "host",
	"__shared__": "shared", "__constant__": "constant",
}

var openclQualWords = map[string]string{
	"__kernel": "kernel", "__global": "globalptr",
	"__local": "shared", "__constant": "constant", "__private": "private",
}

func (p *parser) qualWord(text string) (string, bool) {
	if w, ok := genericQualWords[text]; ok {
		return w, true
	}
	if p.dialect == DialectOpenCL {
		w, ok := openclQualWords[text]
		return w, ok
	}
	w, ok := cudaQualWords[text]
	return w, ok
}

func (p *parser) parseQuals() quals {
	var q quals
	for {
		w, ok := p.qualWord(p.cur().Text)
		if !ok {
			return q
		}
		switch w {
		case "kernel":
			q.kernel = true
		case "device":
			q.device = true
		case "shared":
			q.shared = true
		case "constant":
			q.constant = true
		case "const":
			q.isConst = true
		}
		p.next()
	}
}

// isTypeStart reports whether the current token begins a type.
func (p *parser) isTypeStart() bool {
	switch p.cur().Text {
	case "void", "int", "unsigned", "float", "double", "bool", "char", "long",
		"short", "size_t":
		return true
	}
	return false
}

// parseBaseType parses a scalar type name (no pointers).
func (p *parser) parseBaseType() (*Type, error) {
	t := p.cur()
	switch t.Text {
	case "void":
		p.next()
		return TypeVoid, nil
	case "bool":
		p.next()
		return TypeBool, nil
	case "float", "double":
		// double is accepted and treated as float: course GPUs of the era
		// were taught with single precision.
		p.next()
		return TypeFloat, nil
	case "char":
		p.next()
		return TypeChar, nil
	case "size_t":
		p.next()
		return TypeUInt, nil
	case "int", "long", "short":
		p.next()
		return TypeInt, nil
	case "unsigned":
		p.next()
		switch p.cur().Text {
		case "char":
			p.next()
			return TypeUChar, nil
		case "int", "long", "short":
			p.next()
			return TypeUInt, nil
		}
		return TypeUInt, nil
	}
	return nil, errAt(t, "expected type, found %s", t)
}

// parsePtrSuffix wraps base in pointer types for each '*'.
func (p *parser) parsePtrSuffix(base *Type, space MemSpace) *Type {
	for p.accept("*") {
		base = PtrTo(base, space)
		// const after * (e.g. float* const) is accepted and ignored.
		for p.accept("const") || p.accept("__restrict__") {
		}
	}
	return base
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{Dialect: p.dialect}
	for p.cur().Kind != TokEOF {
		q := p.parseQuals()
		if !p.isTypeStart() {
			return nil, errAt(p.cur(), "expected declaration, found %s", p.cur())
		}
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		space := SpaceGlobal
		if q.constant {
			space = SpaceConst
		}
		typ := p.parsePtrSuffix(base, space)
		nameTok := p.cur()
		if nameTok.Kind != TokIdent {
			return nil, errAt(nameTok, "expected name, found %s", nameTok)
		}
		p.next()
		if p.cur().Text == "(" {
			fn, err := p.parseFunctionRest(q, typ, nameTok)
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fn)
			continue
		}
		// File-scope variable: only __constant__ (or const arrays used as
		// masks) are meaningful on the device.
		vd, err := p.parseDeclaratorRest(typ, nameTok, space)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		qual := "__constant__"
		if !q.constant {
			if !q.isConst {
				return nil, errAt(nameTok, "file-scope variable %q must be __constant__ or const", nameTok.Text)
			}
		}
		prog.Globals = append(prog.Globals, &GlobalVar{Decl: vd, Qual: qual})
	}
	return prog, nil
}

func (p *parser) parseFunctionRest(q quals, ret *Type, nameTok Token) (*Function, error) {
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	fn := &Function{Name: nameTok.Text, Ret: ret, IsKernel: q.kernel, tok: nameTok}
	if !p.accept(")") {
		for {
			if p.accept("void") && p.cur().Text == ")" {
				p.next()
				break
			}
			pq := p.parseQuals()
			base, err := p.parseBaseType()
			if err != nil {
				return nil, err
			}
			space := SpaceGlobal
			if pq.shared {
				space = SpaceShared
			}
			if pq.constant {
				space = SpaceConst
			}
			typ := p.parsePtrSuffix(base, space)
			pt := p.cur()
			if pt.Kind != TokIdent {
				return nil, errAt(pt, "expected parameter name, found %s", pt)
			}
			p.next()
			vd, err := p.parseDeclaratorRest(typ, pt, space)
			if err != nil {
				return nil, err
			}
			if vd.Init != nil {
				return nil, errAt(pt, "parameter %q cannot have a default value", pt.Text)
			}
			fn.Params = append(fn.Params, vd)
			if p.accept(",") {
				continue
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if p.accept(";") {
		return nil, errAt(nameTok, "function %q declared but not defined", nameTok.Text)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

// parseDeclaratorRest parses array dimensions and an optional initializer
// after the declarator name has been consumed.
func (p *parser) parseDeclaratorRest(typ *Type, nameTok Token, space MemSpace) (*VarDecl, error) {
	var dims []int
	for p.accept("[") {
		dt := p.cur()
		dim, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		n, ok := foldConstInt(dim)
		if !ok || n <= 0 || n > 1<<24 {
			return nil, errAt(dt, "array dimension must be a positive integer constant")
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		dims = append(dims, int(n))
	}
	for i := len(dims) - 1; i >= 0; i-- {
		typ = ArrayOf(typ, dims[i], space)
	}
	vd := &VarDecl{Name: nameTok.Text, Type: typ, tok: nameTok}
	if p.accept("=") {
		if p.cur().Text == "{" {
			return nil, errAt(p.cur(), "aggregate initializers are not supported; initialize from the host")
		}
		init, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		vd.Init = init
	}
	return vd, nil
}

// ---- Statements -----------------------------------------------------------

func (p *parser) parseBlock() (*Block, error) {
	lb, err := p.expect("{")
	if err != nil {
		return nil, err
	}
	b := &Block{stmtBase: stmtBase{tok: lb}}
	for !p.accept("}") {
		if p.cur().Kind == TokEOF {
			return nil, errAt(lb, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Text {
	case "{":
		return p.parseBlock()
	case ";":
		p.next()
		return &EmptyStmt{stmtBase{t}}, nil
	case "if":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept("else") {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &IfStmt{stmtBase{t}, cond, then, els}, nil
	case "for":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		var init Stmt
		if !p.accept(";") {
			s, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			init = s
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		var cond Expr
		if p.cur().Text != ";" {
			c, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			cond = c
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		var post Expr
		if p.cur().Text != ")" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			post = e
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &ForStmt{stmtBase{t}, init, cond, post, body}, nil
	case "while":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase{t}, cond, body, false}, nil
	case "do":
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("while"); err != nil {
			return nil, err
		}
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase{t}, cond, body, true}, nil
	case "return":
		p.next()
		var x Expr
		if p.cur().Text != ";" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			x = e
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{stmtBase{t}, x}, nil
	case "break":
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{stmtBase{t}}, nil
	case "continue":
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{stmtBase{t}}, nil
	case "switch", "goto":
		return nil, errAt(t, "%q statements are not supported", t.Text)
	}
	s, err := p.parseSimpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return s, nil
}

// parseSimpleStmt parses a declaration or an expression statement (no
// trailing semicolon), as allowed in a for-init clause.
func (p *parser) parseSimpleStmt() (Stmt, error) {
	t := p.cur()
	if w, ok := p.qualWord(t.Text); ok && (w == "shared" || w == "constant" || w == "const" || w == "static") || p.isTypeStart() {
		q := p.parseQuals()
		if !p.isTypeStart() {
			return nil, errAt(p.cur(), "expected type after qualifier")
		}
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		space := SpaceLocal
		if q.shared {
			space = SpaceShared
		}
		if q.constant {
			space = SpaceConst
		}
		ds := &DeclStmt{stmtBase: stmtBase{tok: t}}
		for {
			typ := p.parsePtrSuffix(base, space)
			nt := p.cur()
			if nt.Kind != TokIdent {
				return nil, errAt(nt, "expected variable name, found %s", nt)
			}
			p.next()
			vd, err := p.parseDeclaratorRest(typ, nt, space)
			if err != nil {
				return nil, err
			}
			if space == SpaceShared {
				vd.Type = markSpace(vd.Type, SpaceShared)
				vd.Shared = true
			}
			ds.Decls = append(ds.Decls, vd)
			if !p.accept(",") {
				break
			}
		}
		return ds, nil
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{stmtBase{t}, x}, nil
}

// foldConstInt evaluates an integer constant expression at parse time
// (array dimensions after macro expansion, e.g. [2 * 256]).
func foldConstInt(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, true
	case *Unary:
		v, ok := foldConstInt(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case "+":
			return v, true
		case "-":
			return -v, true
		case "~":
			return ^v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *Binary:
		l, ok := foldConstInt(x.L)
		if !ok {
			return 0, false
		}
		r, ok := foldConstInt(x.R)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case "%":
			if r == 0 {
				return 0, false
			}
			return l % r, true
		case "<<":
			return l << (uint(r) & 63), true
		case ">>":
			return l >> (uint(r) & 63), true
		case "&":
			return l & r, true
		case "|":
			return l | r, true
		case "^":
			return l ^ r, true
		case "<", "<=", ">", ">=", "==", "!=", "&&", "||":
			var res bool
			switch x.Op {
			case "<":
				res = l < r
			case "<=":
				res = l <= r
			case ">":
				res = l > r
			case ">=":
				res = l >= r
			case "==":
				res = l == r
			case "!=":
				res = l != r
			case "&&":
				res = l != 0 && r != 0
			case "||":
				res = l != 0 || r != 0
			}
			if res {
				return 1, true
			}
			return 0, true
		}
	case *Ternary:
		c, ok := foldConstInt(x.Cond)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return foldConstInt(x.Then)
		}
		return foldConstInt(x.Else)
	}
	return 0, false
}

// markSpace rewrites the space of array/pointer layers.
func markSpace(t *Type, s MemSpace) *Type {
	if t.Kind != KArray && t.Kind != KPtr {
		return t
	}
	return &Type{Kind: t.Kind, Elem: markSpace(t.Elem, s), Len: t.Len, Space: s}
}

// ---- Expressions -----------------------------------------------------------

func (p *parser) parseExpr() (Expr, error) {
	x, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().Text == "," {
		t := p.next()
		y, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		x = &Binary{exprBase{tok: t}, ",", x, y}
	}
	return x, nil
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) parseAssignExpr() (Expr, error) {
	x, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if assignOps[p.cur().Text] {
		t := p.next()
		r, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &Assign{exprBase{tok: t}, t.Text, x, r}, nil
	}
	return x, nil
}

func (p *parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.cur().Text != "?" {
		return cond, nil
	}
	t := p.next()
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(":"); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Ternary{exprBase{tok: t}, cond, then, els}, nil
}

// binary operator precedence levels, loosest first.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range precLevels[level] {
			if p.cur().Kind == TokPunct && p.cur().Text == op {
				t := p.next()
				y, err := p.parseBinary(level + 1)
				if err != nil {
					return nil, err
				}
				x = &Binary{exprBase{tok: t}, op, x, y}
				matched = true
				break
			}
		}
		if !matched {
			return x, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.Text {
	case "+", "-", "!", "~", "*", "&", "++", "--":
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase{tok: t}, t.Text, x}, nil
	case "(":
		// Possible cast: "(" type ")" unary.
		save := p.pos
		p.next()
		if p.isTypeStart() || func() bool { _, ok := p.qualWord(p.cur().Text); return ok && p.cur().Text != "const" }() {
			p.parseQuals()
			if p.isTypeStart() {
				base, err := p.parseBaseType()
				if err == nil {
					typ := p.parsePtrSuffix(base, SpaceGlobal)
					if p.cur().Text == ")" {
						p.next()
						x, err := p.parseUnary()
						if err != nil {
							return nil, err
						}
						return &Cast{exprBase{tok: t}, typ, x}, nil
					}
				}
			}
		}
		p.pos = save
	case "sizeof":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		var size int
		if p.isTypeStart() {
			base, err := p.parseBaseType()
			if err != nil {
				return nil, err
			}
			typ := p.parsePtrSuffix(base, SpaceGlobal)
			size = typ.Size()
		} else {
			return nil, errAt(t, "sizeof of an expression is not supported; use sizeof(type)")
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return &IntLit{exprBase: exprBase{tok: t, typ: TypeInt}, Val: int64(size)}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch t.Text {
		case "[":
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &Index{exprBase{tok: t}, x, idx}
		case "(":
			vr, ok := x.(*VarRef)
			if !ok {
				return nil, errAt(t, "called object is not a function")
			}
			p.next()
			call := &Call{exprBase: exprBase{tok: t}, Name: vr.Name}
			if !p.accept(")") {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.accept(",") {
						continue
					}
					if _, err := p.expect(")"); err != nil {
						return nil, err
					}
					break
				}
			}
			x = call
		case ".":
			p.next()
			mem := p.cur()
			if mem.Kind != TokIdent {
				return nil, errAt(mem, "expected member name")
			}
			p.next()
			vr, ok := x.(*VarRef)
			if !ok || !isBuiltinDim3(vr.Name) {
				return nil, errAt(t, "member access is only supported on threadIdx/blockIdx/blockDim/gridDim")
			}
			dim, ok := dimIndex(mem.Text)
			if !ok {
				return nil, errAt(mem, "unknown member %q (use .x, .y, .z)", mem.Text)
			}
			x = &BuiltinVarRef{exprBase: exprBase{tok: t, typ: TypeInt}, Base: vr.Name, Dim: dim}
		case "++", "--":
			p.next()
			x = &Postfix{exprBase{tok: t}, t.Text, x}
		default:
			return x, nil
		}
	}
}

func isBuiltinDim3(name string) bool {
	_, ok := builtinBaseID(name)
	return ok
}

func dimIndex(m string) (int, bool) {
	switch m {
	case "x":
		return 0, true
	case "y":
		return 1, true
	case "z":
		return 2, true
	}
	return 0, false
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokIntLit:
		p.next()
		text := strings.TrimRight(t.Text, "uUlL")
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			// Out-of-range literals wrap like C unsigned constants.
			u, uerr := strconv.ParseUint(text, 0, 64)
			if uerr != nil {
				return nil, errAt(t, "invalid integer literal %q", t.Text)
			}
			v = int64(u)
		}
		typ := TypeInt
		if strings.ContainsAny(t.Text, "uU") {
			typ = TypeUInt
		}
		return &IntLit{exprBase: exprBase{tok: t, typ: typ}, Val: v}, nil
	case TokFloatLit:
		p.next()
		text := strings.TrimRight(t.Text, "fFlL")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, errAt(t, "invalid float literal %q", t.Text)
		}
		return &FloatLit{exprBase: exprBase{tok: t, typ: TypeFloat}, Val: v}, nil
	case TokCharLit:
		p.next()
		v, err := charValue(t.Text)
		if err != nil {
			return nil, errAt(t, "%v", err)
		}
		return &IntLit{exprBase: exprBase{tok: t, typ: TypeChar}, Val: v}, nil
	case TokIdent:
		p.next()
		if p.dialect == DialectOpenCL {
			if v, ok := openclConstants[t.Text]; ok {
				return &IntLit{exprBase: exprBase{tok: t, typ: TypeInt}, Val: v}, nil
			}
		}
		return &VarRef{exprBase: exprBase{tok: t}, Name: t.Text}, nil
	case TokKeyword:
		switch t.Text {
		case "true":
			p.next()
			return &BoolLit{exprBase: exprBase{tok: t, typ: TypeBool}, Val: true}, nil
		case "false":
			p.next()
			return &BoolLit{exprBase: exprBase{tok: t, typ: TypeBool}, Val: false}, nil
		}
	case TokPunct:
		if t.Text == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	case TokStringLit:
		return nil, errAt(t, "string literals are not supported in device code")
	}
	return nil, errAt(t, "expected expression, found %s", t)
}

func charValue(text string) (int64, error) {
	if len(text) == 1 {
		return int64(text[0]), nil
	}
	if len(text) == 2 && text[0] == '\\' {
		switch text[1] {
		case 'n':
			return '\n', nil
		case 't':
			return '\t', nil
		case '0':
			return 0, nil
		case '\\':
			return '\\', nil
		case '\'':
			return '\'', nil
		}
	}
	return 0, fmt.Errorf("invalid character literal '%s'", text)
}
