package minicuda

import (
	"fmt"
	"strings"
)

// Kind enumerates the scalar and composite type kinds the language
// supports.
type Kind int

// Type kinds.
const (
	KVoid Kind = iota
	KBool
	KChar  // signed 8-bit
	KUChar // unsigned 8-bit
	KInt   // signed 32-bit
	KUInt  // unsigned 32-bit
	KFloat // 32-bit IEEE
	KPtr
	KArray
)

// MemSpace identifies which memory space a pointer or array lives in.
type MemSpace int

// Memory spaces.
const (
	SpaceGlobal MemSpace = iota
	SpaceShared
	SpaceConst
	SpaceLocal // per-thread stack arrays (register tiling)
)

func (s MemSpace) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceShared:
		return "shared"
	case SpaceConst:
		return "constant"
	case SpaceLocal:
		return "local"
	}
	return "?"
}

// Type describes a minicuda type.
type Type struct {
	Kind  Kind
	Elem  *Type    // KPtr, KArray
	Len   int      // KArray: element count of the outermost dimension
	Space MemSpace // KPtr, KArray
}

// Singleton scalar types.
var (
	TypeVoid  = &Type{Kind: KVoid}
	TypeBool  = &Type{Kind: KBool}
	TypeChar  = &Type{Kind: KChar}
	TypeUChar = &Type{Kind: KUChar}
	TypeInt   = &Type{Kind: KInt}
	TypeUInt  = &Type{Kind: KUInt}
	TypeFloat = &Type{Kind: KFloat}

	// scalarTypes maps a scalar Kind to its singleton.
	scalarTypes = [...]*Type{KVoid: TypeVoid, KBool: TypeBool, KChar: TypeChar, KUChar: TypeUChar,
		KInt: TypeInt, KUInt: TypeUInt, KFloat: TypeFloat}
)

// PtrTo returns a pointer type to elem in the given space.
func PtrTo(elem *Type, space MemSpace) *Type {
	return &Type{Kind: KPtr, Elem: elem, Space: space}
}

// ArrayOf returns an array type of n elems in the given space.
func ArrayOf(elem *Type, n int, space MemSpace) *Type {
	return &Type{Kind: KArray, Elem: elem, Len: n, Space: space}
}

// IsScalar reports whether t is a non-void scalar.
func (t *Type) IsScalar() bool {
	switch t.Kind {
	case KBool, KChar, KUChar, KInt, KUInt, KFloat:
		return true
	}
	return false
}

// IsInteger reports whether t is an integer (or bool/char) scalar.
func (t *Type) IsInteger() bool {
	switch t.Kind {
	case KBool, KChar, KUChar, KInt, KUInt:
		return true
	}
	return false
}

// IsPtr reports whether t is a pointer.
func (t *Type) IsPtr() bool { return t.Kind == KPtr }

// Size returns the byte size of the type as laid out in device memory.
func (t *Type) Size() int {
	switch t.Kind {
	case KBool, KChar, KUChar:
		return 1
	case KInt, KUInt, KFloat:
		return 4
	case KPtr:
		return 8
	case KArray:
		return t.Len * t.Elem.Size()
	}
	return 0
}

// ElemBase returns the ultimate scalar element of nested array types.
func (t *Type) ElemBase() *Type {
	for t.Kind == KArray {
		t = t.Elem
	}
	return t
}

// Equal reports structural type equality, ignoring memory space.
func (t *Type) Equal(o *Type) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind != o.Kind || t.Len != o.Len {
		return false
	}
	if t.Elem != nil || o.Elem != nil {
		return t.Elem.Equal(o.Elem)
	}
	return true
}

func (t *Type) String() string {
	switch t.Kind {
	case KVoid:
		return "void"
	case KBool:
		return "bool"
	case KChar:
		return "char"
	case KUChar:
		return "unsigned char"
	case KInt:
		return "int"
	case KUInt:
		return "unsigned int"
	case KFloat:
		return "float"
	case KPtr:
		return t.Elem.String() + "*"
	case KArray:
		var dims strings.Builder
		for a := t; a.Kind == KArray; a = a.Elem {
			fmt.Fprintf(&dims, "[%d]", a.Len)
		}
		return t.ElemBase().String() + dims.String()
	}
	return "?"
}

// commonType returns the usual-arithmetic-conversion result of a binary
// operation on types a and b (float dominates, then unsigned, then int).
func commonType(a, b *Type) *Type {
	if a.Kind == KFloat || b.Kind == KFloat {
		return TypeFloat
	}
	if a.Kind == KUInt || b.Kind == KUInt {
		return TypeUInt
	}
	return TypeInt
}
