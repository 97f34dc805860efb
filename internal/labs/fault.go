package labs

import (
	"errors"
	"fmt"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
)

// Fault is a failed run's error as facts: which fault it was and what the
// compiler, the engine or the harness knew about it where it was raised.
// FaultOf builds it once, where the error becomes an Outcome's text, so
// that what reads an Outcome later (the hints) never parses that text.
type Fault struct {
	Code   string
	Line   int    `json:",omitempty"` // a compile error's source line
	Name   string `json:",omitempty"` // what the fault concerns; see the codes
	Offset int    `json:",omitempty"` // FaultOutOfBounds: the access's byte offset
	Alloc  int    `json:",omitempty"` // FaultOutOfBounds: the allocation's size in bytes
}

// Fault codes, and what Name holds.
const (
	FaultUndeclared        = minicuda.CodeUndeclared   // the identifier or function
	FaultExpected          = minicuda.CodeExpected     // the expected token
	FaultWrongDialect      = minicuda.CodeWrongDialect // the other dialect's builtin
	FaultDim3Member        = minicuda.CodeDim3Member   // threadIdx, blockIdx, blockDim or gridDim
	FaultOutOfBounds       = "out-of-bounds"           // "global" or "shared"
	FaultIllegalAccess     = "illegal-access"          // any other illegal access: no offset is known
	FaultConstWrite        = "const-write"
	FaultBarrierDivergence = "barrier-divergence"
	FaultStepLimit         = "step-limit"
	FaultDivByZero         = "div-by-zero"
	FaultCallDepth         = "call-depth"
	FaultMissingKernel     = "missing-kernel" // the kernel the harness launches
)

// ErrMissingKernel is the failure of a run whose program lacks a kernel
// the lab's harness launches.
var ErrMissingKernel = errors.New("labs: solution must define a __global__ kernel")

type missingKernel struct {
	name  string
	found []string
}

func (e missingKernel) Error() string {
	return fmt.Sprintf("%v named %q (found %v)", ErrMissingKernel, e.name, e.found)
}

func (e missingKernel) Unwrap() error { return ErrMissingKernel }

// sentinelFaults maps the sentinel errors to their codes, in the order
// they are tried: ErrConstStore wraps ErrIllegalAccess.
var sentinelFaults = []struct {
	err  error
	code string
}{
	{minicuda.ErrConstStore, FaultConstWrite},
	{gpusim.ErrIllegalAccess, FaultIllegalAccess},
	{gpusim.ErrBarrierDivergence, FaultBarrierDivergence},
	{minicuda.ErrStepLimit, FaultStepLimit},
	{minicuda.ErrDivByZero, FaultDivByZero},
	{minicuda.ErrCallDepth, FaultCallDepth},
}

// FaultOf classifies a compile or run error, wrapped or not. It is nil
// for an error no hint tells apart; TestFaultsCoverErrors lists those.
func FaultOf(err error) *Fault {
	var ce *minicuda.CompileError
	var ae *gpusim.AccessError
	var mk missingKernel
	switch {
	case errors.As(err, &ce):
		if ce.Code == "" {
			return nil
		}
		return &Fault{Code: ce.Code, Line: ce.Line, Name: ce.Name}
	case errors.As(err, &ae):
		f := &Fault{Code: FaultOutOfBounds, Name: "global", Offset: ae.Offset, Alloc: ae.Alloc}
		if ae.Shared {
			f.Name = "shared"
		}
		return f
	case errors.As(err, &mk):
		return &Fault{Code: FaultMissingKernel, Name: mk.name}
	}
	for _, s := range sentinelFaults {
		if errors.Is(err, s.err) {
			return &Fault{Code: s.code}
		}
	}
	return nil
}
