package minicuda

// AST node definitions. The parser produces these; the semantic pass
// annotates them in place (resolved symbols, slot indices, computed
// types); the interpreter walks them directly.

import (
	"sync"
	"unsafe"
)

// Node is the common interface of AST nodes, carrying a source token for
// diagnostics.
type Node interface {
	Tok() Token
}

// ---- Expressions -----------------------------------------------------------

// Expr is an expression node. Type is filled in by the semantic pass.
type Expr interface {
	Node
	ResultType() *Type
}

type exprBase struct {
	tok Token
	typ *Type
}

func (e *exprBase) Tok() Token        { return e.tok }
func (e *exprBase) ResultType() *Type { return e.typ }

// IntLit is an integer literal. val is the boxed runtime value, computed
// once by box so the interpreter's hot path returns it without re-boxing.
// The box methods are the one definition of a literal's value; sema and
// the program decoder both call them.
type IntLit struct {
	exprBase
	Val int64
	val Value
}

func (n *IntLit) box() { n.val = intValue(n.typ, n.Val) }

// FloatLit is a floating literal.
type FloatLit struct {
	exprBase
	Val float64
	val Value
}

func (n *FloatLit) box() { n.val = floatValue(n.Val) }

// BoolLit is true/false.
type BoolLit struct {
	exprBase
	Val bool
	val Value
}

func (n *BoolLit) box() {
	n.val = Value{T: TypeBool}
	if n.Val {
		n.val.I = 1
	}
}

// VarRef is a resolved reference to a declared name.
type VarRef struct {
	exprBase
	Name string
	Sym  *Symbol // filled by sema
}

// BuiltinVarRef is threadIdx/blockIdx/blockDim/gridDim member access, e.g.
// threadIdx.x. Dim is 0, 1, or 2 for .x, .y, .z. baseID is the Base string
// resolved to a small index (builtinBaseID) so the interpreter's hot path
// avoids string comparison.
type BuiltinVarRef struct {
	exprBase
	Base   string // "threadIdx", ...
	Dim    int
	baseID uint8
}

// Base indices for BuiltinVarRef.baseID.
const (
	baseThreadIdx uint8 = iota
	baseBlockIdx
	baseBlockDim
	baseGridDim
)

// builtinBaseID resolves the name of a builtin dim3 variable to its
// baseID; ok is false for any other name.
func builtinBaseID(name string) (id uint8, ok bool) {
	switch name {
	case "threadIdx":
		return baseThreadIdx, true
	case "blockIdx":
		return baseBlockIdx, true
	case "blockDim":
		return baseBlockDim, true
	case "gridDim":
		return baseGridDim, true
	}
	return 0, false
}

// Unary is a prefix unary operation: + - ! ~ * (deref) & (addr) ++ --.
type Unary struct {
	exprBase
	Op string
	X  Expr
}

// Postfix is x++ or x--.
type Postfix struct {
	exprBase
	Op string
	X  Expr
}

// Binary is a binary arithmetic/logical/comparison operation.
type Binary struct {
	exprBase
	Op   string
	L, R Expr
}

// Assign is an assignment or compound assignment; Op is "=", "+=", etc.
type Assign struct {
	exprBase
	Op   string
	L, R Expr
}

// Ternary is cond ? a : b.
type Ternary struct {
	exprBase
	Cond, Then, Else Expr
}

// Index is a subscript expression base[idx].
type Index struct {
	exprBase
	Base Expr
	Idx  Expr
}

// Call is a function call; resolved to either a user function or a builtin
// by sema.
type Call struct {
	exprBase
	Name    string
	Args    []Expr
	Fn      *Function // user device function, or nil
	Builtin string    // builtin name, or ""
}

// Cast is an explicit C-style cast.
type Cast struct {
	exprBase
	To *Type
	X  Expr
}

// ---- Statements ------------------------------------------------------------

// Stmt is a statement node.
type Stmt interface{ Node }

type stmtBase struct{ tok Token }

func (s *stmtBase) Tok() Token { return s.tok }

// Block is { ... }.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// DeclStmt declares one or more local variables.
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// VarDecl is a single declarator within a declaration.
type VarDecl struct {
	Name   string
	Type   *Type
	Init   Expr    // may be nil
	Shared bool    // declared __shared__ (or OpenCL __local)
	Sym    *Symbol // filled by sema
	tok    Token
}

// Tok returns the declarator's token.
func (d *VarDecl) Tok() Token { return d.tok }

// ExprStmt is an expression evaluated for side effects.
type ExprStmt struct {
	stmtBase
	X Expr
}

// IfStmt is if/else.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// ForStmt is a for loop; any of Init/Cond/Post may be nil.
type ForStmt struct {
	stmtBase
	Init Stmt // DeclStmt or ExprStmt
	Cond Expr
	Post Expr
	Body Stmt
}

// WhileStmt is while or do-while (DoFirst).
type WhileStmt struct {
	stmtBase
	Cond    Expr
	Body    Stmt
	DoFirst bool
}

// ReturnStmt returns from the current function.
type ReturnStmt struct {
	stmtBase
	X Expr // may be nil
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ stmtBase }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ stmtBase }

// EmptyStmt is a bare semicolon.
type EmptyStmt struct{ stmtBase }

// ---- Declarations ----------------------------------------------------------

// SymKind classifies a resolved symbol.
type SymKind int

// Symbol kinds.
const (
	SymLocal  SymKind = iota // function local or parameter: a frame slot
	SymShared                // __shared__ variable: offset in the block arena
	SymConst                 // __constant__ variable: offset in constant memory
)

// Symbol is a resolved variable.
type Symbol struct {
	Name  string
	Kind  SymKind
	Type  *Type
	Slot  int // SymLocal: frame slot index
	Off   int // SymShared/SymConst: byte offset
	IsArg bool
}

// Function is a parsed (and after sema, resolved) function.
type Function struct {
	Name     string
	Ret      *Type
	Params   []*VarDecl
	Body     *Block
	IsKernel bool
	tok      Token

	// Filled by sema:
	NumSlots  int
	SharedUse int       // bytes of static __shared__ declared in this kernel
	Syms      []*Symbol // all locals, for debugging
}

// Tok returns the function's declaration token.
func (f *Function) Tok() Token { return f.tok }

// GlobalVar is a file-scope __constant__ (or const) variable.
type GlobalVar struct {
	Decl *VarDecl
	Qual string // "__constant__"
}

// Program is a parsed translation unit.
type Program struct {
	Funcs   []*Function
	Globals []*GlobalVar
	Dialect Dialect

	kernels     map[string]*Function
	functions   map[string]*Function
	constVars   map[string]*Symbol
	constSize   int
	usesBarrier bool

	// Executable artifact for the warp engine: the lowered bytecode plus
	// the fused warp stream derived from it (nil when some construct could
	// not be lowered and launches run on the tree-walking interpreter).
	wpOnce sync.Once
	wp     *warpProgram
}

// warpcode returns the program's warp-execution artifact, lowering the
// tree to bytecode and fusing it on first use. A nil result means
// launches run on the tree walker.
func (p *Program) warpcode() *warpProgram {
	p.wpOnce.Do(func() {
		if bc, ok := lowerProgram(p); ok {
			p.wp = buildWarpProgram(bc)
		}
	})
	return p.wp
}

// ArtifactKind reports which executable artifact a default launch of this
// program uses: "bytecode-warp" for the warp engine, "ast" for the tree
// walker.
func (p *Program) ArtifactKind() string {
	if p.warpcode() != nil {
		return "bytecode-warp"
	}
	return "ast"
}

// InstructionCount reports the number of instructions in the lowered
// bytecode, or 0 when the program could not be lowered.
func (p *Program) InstructionCount() int {
	if wp := p.warpcode(); wp != nil {
		return len(wp.bc.code)
	}
	return 0
}

// BytecodeBytes estimates the in-memory size of the lowered bytecode.
func (p *Program) BytecodeBytes() int {
	return p.InstructionCount() * int(unsafe.Sizeof(instr{}))
}

// UsesBarrier reports whether any function in the program calls
// __syncthreads (or OpenCL barrier); barrier-free programs launch on the
// simulator's faster serial-thread path.
func (p *Program) UsesBarrier() bool { return p.usesBarrier }

// Kernel returns the kernel function with the given name, or nil.
func (p *Program) Kernel(name string) *Function {
	return p.kernels[name]
}

// Kernels lists the kernel names defined by the program.
func (p *Program) Kernels() []string {
	var names []string
	for _, f := range p.Funcs {
		if f.IsKernel {
			names = append(names, f.Name)
		}
	}
	return names
}

// ConstSize returns the bytes of __constant__ memory the program declares.
func (p *Program) ConstSize() int { return p.constSize }

// ConstOffset returns the constant-memory byte offset of a __constant__
// variable, for host-side CopyToConst.
func (p *Program) ConstOffset(name string) (int, bool) {
	s, ok := p.constVars[name]
	if !ok {
		return 0, false
	}
	return s.Off, true
}

// Dialect selects the accepted language variant.
type Dialect int

// Dialects.
const (
	DialectCUDA Dialect = iota
	DialectOpenCL
)

func (d Dialect) String() string {
	switch d {
	case DialectOpenCL:
		return "OpenCL"
	case DialectOpenACC:
		return "OpenACC"
	}
	return "CUDA"
}
