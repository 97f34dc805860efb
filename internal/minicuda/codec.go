package minicuda

// Binary program codec: the durable-artifact serialization behind
// internal/castore. EncodeProgram flattens a compiled (parsed + analyzed)
// Program into a versioned, self-contained byte stream; DecodeProgram
// rebuilds an equivalent Program without re-running the lexer, parser, or
// semantic analyzer. The bytecode and fused warp streams are NOT
// serialized — they are riddled with AST-pointer-keyed maps, interned
// *Type pointers, and error values — instead the decoder re-runs the
// deterministic lowerer (exactly what Compile does after Analyze), so a
// decoded Program carries the same ast/bytecode/bytecode-warp artifact
// set as a freshly compiled one and launches on every engine tier.
//
// Format (all integers are varints unless noted):
//
//	magic "MCPG" | version | dialect | usesBarrier | constSize
//	string table: count, then len+bytes per entry
//	type table:   count, then kind [+ elem-index, len, space] per entry;
//	              scalar entries decode to the package singletons, and an
//	              entry's elem index always precedes it in the table
//	symbol table: count, then {name, kind, type, slot, off, isArg}
//	functions:    count, then header + params + Syms indices + body tree
//	globals:      count, then {qual, decl}
//
// Expressions and statements are tagged unions carrying their full
// source Token, so runtime traps and diagnostics on a decoded program
// format identically to the compiled original. Per-node caches that are
// pure functions of encoded fields (literal value boxes, builtin-variable
// base IDs) are not stored: the decoder refills them through the same
// helpers sema uses (box, builtinBaseID in ast.go).
//
// The decoder trusts nothing: every index is bounds-checked, counts are
// sanity-capped against the input size, recursion is depth-limited, and
// any panic from rebuilding a structurally broken tree is converted to
// an error. Callers layering integrity on top (castore) additionally
// hash-verify payloads, so a decode error here means a codec version
// skew or corruption — and is always survivable.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// codecMagic and codecVersion identify the stream layout. Bump the
// version on any incompatible change; old entries then decode with an
// error and the caller falls back to compiling from source.
const (
	codecMagic   = "MCPG"
	codecVersion = 1
)

// ErrCodecVersion reports an artifact written by an incompatible codec
// version (or something that is not a program stream at all).
var ErrCodecVersion = errors.New("minicuda: unsupported program stream version")

// maxCodecDepth bounds expression/statement nesting during decode.
const maxCodecDepth = 4096

// Expression tags.
const (
	tagExprNil = iota
	tagIntLit
	tagFloatLit
	tagBoolLit
	tagVarRef
	tagBuiltinVarRef
	tagUnary
	tagPostfix
	tagBinary
	tagAssign
	tagTernary
	tagIndex
	tagCall
	tagCast
)

// Statement tags.
const (
	tagStmtNil = iota
	tagBlock
	tagDeclStmt
	tagExprStmt
	tagIfStmt
	tagForStmt
	tagWhileStmt
	tagReturnStmt
	tagBreakStmt
	tagContinueStmt
	tagEmptyStmt
)

// ---- Encoder ---------------------------------------------------------------

// encTable is one of the stream's three tables under construction:
// entries are appended in their stream encoding as they are interned.
type encTable struct {
	n    uint64
	data []byte
}

type progEncoder struct {
	tree []byte

	strs, types, syms encTable

	strIdx  map[string]uint64  // 0-based
	typeIdx map[*Type]uint64   // 1-based; 0 = nil
	symIdx  map[*Symbol]uint64 // 1-based; 0 = nil
	fnIdx   map[*Function]uint64
}

func newProgEncoder() *progEncoder {
	return &progEncoder{
		strIdx:  map[string]uint64{},
		typeIdx: map[*Type]uint64{},
		symIdx:  map[*Symbol]uint64{},
		fnIdx:   map[*Function]uint64{},
	}
}

// EncodeProgram serializes a compiled program. The program must have
// passed Analyze (Compile guarantees this); encoding a half-built parse
// tree is not supported.
func EncodeProgram(p *Program) ([]byte, error) {
	if p == nil {
		return nil, errors.New("minicuda: cannot encode nil program")
	}
	e := newProgEncoder()
	// Pre-number every function so Call.Fn references resolve regardless
	// of definition order.
	for i, f := range p.Funcs {
		e.fnIdx[f] = uint64(i)
	}

	// Encode the tree first: it interns strings, types, and symbols into
	// the tables as a side effect, and the tables are emitted ahead of it
	// in the final stream so the decoder reads them up front.
	e.u(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		e.function(f)
	}
	e.globals(p.Globals)

	var out []byte
	out = append(out, codecMagic...)
	out = binary.AppendUvarint(out, codecVersion)
	out = binary.AppendUvarint(out, uint64(p.Dialect))
	out = appendBool(out, p.usesBarrier)
	out = binary.AppendUvarint(out, uint64(p.constSize))
	out = e.appendTables(out)
	return append(out, e.tree...), nil
}

// appendTables appends the string, type and symbol tables interned so
// far, in stream layout. The program stream and the structural hashes
// (hash.go) both take them from here.
func (e *progEncoder) appendTables(out []byte) []byte {
	for _, t := range []*encTable{&e.strs, &e.types, &e.syms} {
		out = binary.AppendUvarint(out, t.n)
		out = append(out, t.data...)
	}
	return out
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func (e *progEncoder) u(v uint64) { e.tree = binary.AppendUvarint(e.tree, v) }
func (e *progEncoder) i(v int64)  { e.tree = binary.AppendVarint(e.tree, v) }
func (e *progEncoder) b(v bool)   { e.tree = appendBool(e.tree, v) }
func (e *progEncoder) f64(v float64) {
	e.tree = binary.LittleEndian.AppendUint64(e.tree, math.Float64bits(v))
}

// strRef interns s and returns its table index.
func (e *progEncoder) strRef(s string) uint64 {
	idx, ok := e.strIdx[s]
	if !ok {
		idx = e.strs.n
		e.strIdx[s] = idx
		e.strs.n++
		e.strs.data = binary.AppendUvarint(e.strs.data, uint64(len(s)))
		e.strs.data = append(e.strs.data, s...)
	}
	return idx
}

func (e *progEncoder) str(s string) { e.u(e.strRef(s)) }

// typeRef interns t (by pointer — shared types share one entry, scalar
// singletons collapse at decode) and returns its 1-based ref; 0 is nil.
func (e *progEncoder) typeRef(t *Type) uint64 {
	if t == nil {
		return 0
	}
	if idx, ok := e.typeIdx[t]; ok {
		return idx
	}
	var elem uint64
	if t.Elem != nil {
		elem = e.typeRef(t.Elem) // interned first: elem index < own index
	}
	e.types.n++
	e.typeIdx[t] = e.types.n
	d := binary.AppendUvarint(e.types.data, uint64(t.Kind))
	switch t.Kind {
	case KPtr:
		d = binary.AppendUvarint(d, elem)
		d = binary.AppendUvarint(d, uint64(t.Space))
	case KArray:
		d = binary.AppendUvarint(d, elem)
		d = binary.AppendUvarint(d, uint64(t.Len))
		d = binary.AppendUvarint(d, uint64(t.Space))
	}
	e.types.data = d
	return e.types.n
}

func (e *progEncoder) typ(t *Type) { e.u(e.typeRef(t)) }

// symRef interns sym and returns its 1-based ref; 0 is nil.
func (e *progEncoder) symRef(sym *Symbol) uint64 {
	if sym == nil {
		return 0
	}
	if idx, ok := e.symIdx[sym]; ok {
		return idx
	}
	name, typ := e.strRef(sym.Name), e.typeRef(sym.Type)
	e.syms.n++
	e.symIdx[sym] = e.syms.n
	d := binary.AppendUvarint(e.syms.data, name)
	d = binary.AppendUvarint(d, uint64(sym.Kind))
	d = binary.AppendUvarint(d, typ)
	d = binary.AppendUvarint(d, uint64(sym.Slot))
	d = binary.AppendUvarint(d, uint64(sym.Off))
	e.syms.data = appendBool(d, sym.IsArg)
	return e.syms.n
}

func (e *progEncoder) sym(sym *Symbol) { e.u(e.symRef(sym)) }

func (e *progEncoder) token(t Token) {
	e.u(uint64(t.Kind))
	e.str(t.Text)
	e.u(uint64(t.Line))
	e.u(uint64(t.Col))
}

func (e *progEncoder) function(f *Function) {
	e.str(f.Name)
	e.typ(f.Ret)
	e.b(f.IsKernel)
	e.token(f.tok)
	e.u(uint64(f.NumSlots))
	e.u(uint64(f.SharedUse))
	e.u(uint64(len(f.Syms)))
	for _, s := range f.Syms {
		e.sym(s)
	}
	e.u(uint64(len(f.Params)))
	for _, p := range f.Params {
		e.varDecl(p)
	}
	e.stmt(f.Body)
}

func (e *progEncoder) globals(gs []*GlobalVar) {
	e.u(uint64(len(gs)))
	for _, g := range gs {
		e.str(g.Qual)
		e.varDecl(g.Decl)
	}
}

func (e *progEncoder) varDecl(d *VarDecl) {
	e.str(d.Name)
	e.typ(d.Type)
	e.expr(d.Init)
	e.b(d.Shared)
	e.sym(d.Sym)
	e.token(d.tok)
}

func (e *progEncoder) expr(x Expr) {
	if x == nil {
		e.u(tagExprNil)
		return
	}
	switch n := x.(type) {
	case *IntLit:
		e.u(tagIntLit)
		e.exprBase(&n.exprBase)
		e.i(n.Val)
	case *FloatLit:
		e.u(tagFloatLit)
		e.exprBase(&n.exprBase)
		e.f64(n.Val)
	case *BoolLit:
		e.u(tagBoolLit)
		e.exprBase(&n.exprBase)
		e.b(n.Val)
	case *VarRef:
		e.u(tagVarRef)
		e.exprBase(&n.exprBase)
		e.str(n.Name)
		e.sym(n.Sym)
	case *BuiltinVarRef:
		e.u(tagBuiltinVarRef)
		e.exprBase(&n.exprBase)
		e.str(n.Base)
		e.u(uint64(n.Dim))
	case *Unary:
		e.u(tagUnary)
		e.exprBase(&n.exprBase)
		e.str(n.Op)
		e.expr(n.X)
	case *Postfix:
		e.u(tagPostfix)
		e.exprBase(&n.exprBase)
		e.str(n.Op)
		e.expr(n.X)
	case *Binary:
		e.u(tagBinary)
		e.exprBase(&n.exprBase)
		e.str(n.Op)
		e.expr(n.L)
		e.expr(n.R)
	case *Assign:
		e.u(tagAssign)
		e.exprBase(&n.exprBase)
		e.str(n.Op)
		e.expr(n.L)
		e.expr(n.R)
	case *Ternary:
		e.u(tagTernary)
		e.exprBase(&n.exprBase)
		e.expr(n.Cond)
		e.expr(n.Then)
		e.expr(n.Else)
	case *Index:
		e.u(tagIndex)
		e.exprBase(&n.exprBase)
		e.expr(n.Base)
		e.expr(n.Idx)
	case *Call:
		e.u(tagCall)
		e.exprBase(&n.exprBase)
		e.str(n.Name)
		e.str(n.Builtin)
		if n.Fn != nil {
			// A structural hash (hash.go) encodes one function with an
			// empty fnIdx: every resolved callee writes 1 there and is
			// told apart by Name alone.
			e.u(e.fnIdx[n.Fn] + 1)
		} else {
			e.u(0)
		}
		e.u(uint64(len(n.Args)))
		for _, a := range n.Args {
			e.expr(a)
		}
	case *Cast:
		e.u(tagCast)
		e.exprBase(&n.exprBase)
		e.typ(n.To)
		e.expr(n.X)
	default:
		// Unreachable for programs produced by Parse; a new node type
		// added without codec support must fail loudly in tests.
		panic(fmt.Sprintf("minicuda: codec: unknown expression %T", x))
	}
}

func (e *progEncoder) exprBase(b *exprBase) {
	e.token(b.tok)
	e.typ(b.typ)
}

func (e *progEncoder) stmt(s Stmt) {
	if s == nil {
		e.u(tagStmtNil)
		return
	}
	switch n := s.(type) {
	case *Block:
		e.u(tagBlock)
		e.token(n.tok)
		e.u(uint64(len(n.Stmts)))
		for _, st := range n.Stmts {
			e.stmt(st)
		}
	case *DeclStmt:
		e.u(tagDeclStmt)
		e.token(n.tok)
		e.u(uint64(len(n.Decls)))
		for _, d := range n.Decls {
			e.varDecl(d)
		}
	case *ExprStmt:
		e.u(tagExprStmt)
		e.token(n.tok)
		e.expr(n.X)
	case *IfStmt:
		e.u(tagIfStmt)
		e.token(n.tok)
		e.expr(n.Cond)
		e.stmt(n.Then)
		e.stmt(n.Else)
	case *ForStmt:
		e.u(tagForStmt)
		e.token(n.tok)
		e.stmt(n.Init)
		e.expr(n.Cond)
		e.expr(n.Post)
		e.stmt(n.Body)
	case *WhileStmt:
		e.u(tagWhileStmt)
		e.token(n.tok)
		e.expr(n.Cond)
		e.stmt(n.Body)
		e.b(n.DoFirst)
	case *ReturnStmt:
		e.u(tagReturnStmt)
		e.token(n.tok)
		e.expr(n.X)
	case *BreakStmt:
		e.u(tagBreakStmt)
		e.token(n.tok)
	case *ContinueStmt:
		e.u(tagContinueStmt)
		e.token(n.tok)
	case *EmptyStmt:
		e.u(tagEmptyStmt)
		e.token(n.tok)
	default:
		panic(fmt.Sprintf("minicuda: codec: unknown statement %T", s))
	}
}

// ---- Decoder ---------------------------------------------------------------

type progDecoder struct {
	data  []byte
	off   int
	depth int

	strs  []string
	types []*Type
	syms  []*Symbol
	funcs []*Function
}

// DecodeProgram rebuilds a program from an EncodeProgram stream and
// eagerly re-lowers it to bytecode and the fused warp stream (exactly
// what Compile does after analysis), so the decoded program is
// launch-ready on every engine tier. Any corruption — wrong version,
// truncation, dangling index — returns an error, never a panic: callers
// treat a decode failure as a cache miss and recompile from source.
func DecodeProgram(data []byte) (p *Program, err error) {
	defer func() {
		// The lowerer and validation walk a decoder-built tree; convert
		// any structural surprise into a decode error so a corrupt
		// artifact can only ever degrade to a recompile.
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("minicuda: decode program: %v", r)
		}
	}()
	d := &progDecoder{data: data}
	if len(data) < len(codecMagic) || string(data[:len(codecMagic)]) != codecMagic {
		return nil, ErrCodecVersion
	}
	d.off = len(codecMagic)
	if v := d.u(); v != codecVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrCodecVersion, v, codecVersion)
	}

	prog := &Program{
		Dialect:   Dialect(d.u()),
		kernels:   map[string]*Function{},
		functions: map[string]*Function{},
		constVars: map[string]*Symbol{},
	}
	prog.usesBarrier = d.b()
	prog.constSize = int(d.u())

	// String table.
	n := d.count()
	d.strs = make([]string, 0, n)
	for i := 0; i < n; i++ {
		d.strs = append(d.strs, d.rawString())
	}
	// Type table: scalar kinds collapse onto the package singletons so
	// decoded programs share the same interned scalars as compiled ones.
	n = d.count()
	d.types = make([]*Type, 0, n)
	for i := 0; i < n; i++ {
		kind := Kind(d.u())
		switch {
		case kind >= 0 && int(kind) < len(scalarTypes):
			d.types = append(d.types, scalarTypes[kind])
		case kind == KPtr:
			elem := d.typeAt(d.u())
			d.types = append(d.types, PtrTo(elem, MemSpace(d.u())))
		case kind == KArray:
			elem, ln := d.typeAt(d.u()), int(d.u())
			d.types = append(d.types, ArrayOf(elem, ln, MemSpace(d.u())))
		default:
			d.fail("unknown type kind %d", kind)
		}
	}
	// Symbol table.
	n = d.count()
	d.syms = make([]*Symbol, 0, n)
	for i := 0; i < n; i++ {
		d.syms = append(d.syms, &Symbol{
			Name:  d.str(),
			Kind:  SymKind(d.u()),
			Type:  d.typeRef(),
			Slot:  int(d.u()),
			Off:   int(d.u()),
			IsArg: d.b(),
		})
	}

	// Functions: allocate all headers first so calls resolve forward
	// references, then fill each in order.
	n = d.count()
	d.funcs = make([]*Function, n)
	for i := range d.funcs {
		d.funcs[i] = &Function{}
	}
	for _, f := range d.funcs {
		d.function(f)
	}
	prog.Funcs = d.funcs

	n = d.count()
	for i := 0; i < n; i++ {
		g := &GlobalVar{Qual: d.str(), Decl: d.varDecl()}
		prog.Globals = append(prog.Globals, g)
	}
	if d.off != len(d.data) {
		d.fail("%d trailing bytes", len(d.data)-d.off)
	}

	// Rebuild the name-resolution maps Analyze would have produced.
	for _, f := range prog.Funcs {
		if f.Name == "" || prog.functions[f.Name] != nil {
			d.fail("function table broken at %q", f.Name)
		}
		prog.functions[f.Name] = f
		if f.IsKernel {
			prog.kernels[f.Name] = f
		}
	}
	for _, g := range prog.Globals {
		if g.Decl == nil || g.Decl.Sym == nil {
			d.fail("global without a resolved symbol")
		}
		prog.constVars[g.Decl.Name] = g.Decl.Sym
	}
	if len(prog.kernels) == 0 {
		d.fail("no kernels")
	}

	// Re-derive the executable artifacts eagerly, like Compile: the
	// lowerer is deterministic over the (fully annotated) tree, so the
	// decoded program's bytecode and warp streams match the original's.
	prog.warpcode()
	return prog, nil
}

// fail aborts the decode via panic; DecodeProgram's recover converts it
// into the returned error.
func (d *progDecoder) fail(format string, args ...interface{}) {
	panic(fmt.Sprintf("offset %d: %s", d.off, fmt.Sprintf(format, args...)))
}

func (d *progDecoder) u() uint64 {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated varint")
	}
	d.off += n
	return v
}

func (d *progDecoder) i() int64 {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated varint")
	}
	d.off += n
	return v
}

func (d *progDecoder) b() bool {
	if d.off >= len(d.data) {
		d.fail("truncated bool")
	}
	v := d.data[d.off]
	d.off++
	return v != 0
}

func (d *progDecoder) f64() float64 {
	if d.off+8 > len(d.data) {
		d.fail("truncated float64")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

// count reads a table/sequence length, capped by the bytes remaining —
// every encoded element costs at least one byte, so a larger count is
// corruption, not a big program.
func (d *progDecoder) count() int {
	n := d.u()
	if n > uint64(len(d.data)-d.off) {
		d.fail("count %d exceeds input", n)
	}
	return int(n)
}

func (d *progDecoder) rawString() string {
	n := d.u()
	if n > uint64(len(d.data)-d.off) {
		d.fail("truncated string")
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *progDecoder) str() string {
	idx := d.u()
	if idx >= uint64(len(d.strs)) {
		d.fail("string index %d of %d", idx, len(d.strs))
	}
	return d.strs[idx]
}

// typeAt resolves a 1-based type ref against the table built so far
// (table entries may only reference earlier entries).
func (d *progDecoder) typeAt(ref uint64) *Type {
	if ref == 0 || ref > uint64(len(d.types)) {
		d.fail("type index %d of %d", ref, len(d.types))
	}
	return d.types[ref-1]
}

func (d *progDecoder) typeRef() *Type {
	ref := d.u()
	if ref == 0 {
		return nil
	}
	return d.typeAt(ref)
}

func (d *progDecoder) symRef() *Symbol {
	ref := d.u()
	if ref == 0 {
		return nil
	}
	if ref > uint64(len(d.syms)) {
		d.fail("symbol index %d of %d", ref, len(d.syms))
	}
	return d.syms[ref-1]
}

func (d *progDecoder) fnRef() *Function {
	ref := d.u()
	if ref == 0 {
		return nil
	}
	if ref > uint64(len(d.funcs)) {
		d.fail("function index %d of %d", ref, len(d.funcs))
	}
	return d.funcs[ref-1]
}

func (d *progDecoder) token() Token {
	return Token{
		Kind: TokKind(d.u()),
		Text: d.str(),
		Line: int(d.u()),
		Col:  int(d.u()),
	}
}

func (d *progDecoder) function(f *Function) {
	f.Name = d.str()
	f.Ret = d.typeRef()
	f.IsKernel = d.b()
	f.tok = d.token()
	f.NumSlots = int(d.u())
	f.SharedUse = int(d.u())
	n := d.count()
	f.Syms = make([]*Symbol, 0, n)
	for i := 0; i < n; i++ {
		f.Syms = append(f.Syms, d.symRef())
	}
	n = d.count()
	f.Params = make([]*VarDecl, 0, n)
	for i := 0; i < n; i++ {
		f.Params = append(f.Params, d.varDecl())
	}
	body, ok := d.stmt().(*Block)
	if !ok {
		d.fail("function %q body is not a block", f.Name)
	}
	f.Body = body
}

func (d *progDecoder) varDecl() *VarDecl {
	return &VarDecl{
		Name:   d.str(),
		Type:   d.typeRef(),
		Init:   d.expr(),
		Shared: d.b(),
		Sym:    d.symRef(),
		tok:    d.token(),
	}
}

func (d *progDecoder) enter() {
	d.depth++
	if d.depth > maxCodecDepth {
		d.fail("nesting exceeds %d", maxCodecDepth)
	}
}

func (d *progDecoder) expr() Expr {
	tag := d.u()
	if tag == tagExprNil {
		return nil
	}
	d.enter()
	defer func() { d.depth-- }()
	base := exprBase{tok: d.token(), typ: d.typeRef()}
	switch tag {
	case tagIntLit:
		n := &IntLit{exprBase: base, Val: d.i()}
		n.box()
		return n
	case tagFloatLit:
		n := &FloatLit{exprBase: base, Val: d.f64()}
		n.box()
		return n
	case tagBoolLit:
		n := &BoolLit{exprBase: base, Val: d.b()}
		n.box()
		return n
	case tagVarRef:
		n := &VarRef{exprBase: base, Name: d.str(), Sym: d.symRef()}
		if n.Sym == nil {
			d.fail("variable reference %q without a symbol", n.Name)
		}
		return n
	case tagBuiltinVarRef:
		n := &BuiltinVarRef{exprBase: base, Base: d.str(), Dim: int(d.u())}
		var ok bool
		if n.baseID, ok = builtinBaseID(n.Base); !ok {
			d.fail("unknown builtin variable %q", n.Base)
		}
		return n
	case tagUnary:
		return &Unary{exprBase: base, Op: d.str(), X: d.mustExpr()}
	case tagPostfix:
		return &Postfix{exprBase: base, Op: d.str(), X: d.mustExpr()}
	case tagBinary:
		return &Binary{exprBase: base, Op: d.str(), L: d.mustExpr(), R: d.mustExpr()}
	case tagAssign:
		return &Assign{exprBase: base, Op: d.str(), L: d.mustExpr(), R: d.mustExpr()}
	case tagTernary:
		return &Ternary{exprBase: base, Cond: d.mustExpr(), Then: d.mustExpr(), Else: d.mustExpr()}
	case tagIndex:
		return &Index{exprBase: base, Base: d.mustExpr(), Idx: d.mustExpr()}
	case tagCall:
		n := &Call{exprBase: base, Name: d.str(), Builtin: d.str(), Fn: d.fnRef()}
		argc := d.count()
		n.Args = make([]Expr, 0, argc)
		for i := 0; i < argc; i++ {
			n.Args = append(n.Args, d.mustExpr())
		}
		return n
	case tagCast:
		return &Cast{exprBase: base, To: d.typeRef(), X: d.mustExpr()}
	}
	d.fail("unknown expression tag %d", tag)
	return nil
}

// mustExpr decodes an expression that the grammar requires to be present.
func (d *progDecoder) mustExpr() Expr {
	x := d.expr()
	if x == nil {
		d.fail("missing required expression")
	}
	return x
}

func (d *progDecoder) stmt() Stmt {
	tag := d.u()
	if tag == tagStmtNil {
		return nil
	}
	d.enter()
	defer func() { d.depth-- }()
	base := stmtBase{tok: d.token()}
	switch tag {
	case tagBlock:
		n := &Block{stmtBase: base}
		cnt := d.count()
		n.Stmts = make([]Stmt, 0, cnt)
		for i := 0; i < cnt; i++ {
			n.Stmts = append(n.Stmts, d.mustStmt())
		}
		return n
	case tagDeclStmt:
		n := &DeclStmt{stmtBase: base}
		cnt := d.count()
		n.Decls = make([]*VarDecl, 0, cnt)
		for i := 0; i < cnt; i++ {
			n.Decls = append(n.Decls, d.varDecl())
		}
		return n
	case tagExprStmt:
		return &ExprStmt{stmtBase: base, X: d.mustExpr()}
	case tagIfStmt:
		return &IfStmt{stmtBase: base, Cond: d.mustExpr(), Then: d.mustStmt(), Else: d.stmt()}
	case tagForStmt:
		return &ForStmt{stmtBase: base, Init: d.stmt(), Cond: d.expr(), Post: d.expr(), Body: d.mustStmt()}
	case tagWhileStmt:
		return &WhileStmt{stmtBase: base, Cond: d.mustExpr(), Body: d.mustStmt(), DoFirst: d.b()}
	case tagReturnStmt:
		return &ReturnStmt{stmtBase: base, X: d.expr()}
	case tagBreakStmt:
		return &BreakStmt{stmtBase: base}
	case tagContinueStmt:
		return &ContinueStmt{stmtBase: base}
	case tagEmptyStmt:
		return &EmptyStmt{stmtBase: base}
	}
	d.fail("unknown statement tag %d", tag)
	return nil
}

func (d *progDecoder) mustStmt() Stmt {
	s := d.stmt()
	if s == nil {
		d.fail("missing required statement")
	}
	return s
}
