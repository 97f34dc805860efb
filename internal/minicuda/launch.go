package minicuda

import (
	"fmt"

	"webgpu/internal/gpusim"
)

// Compile parses and analyzes source, producing an executable Program.
// This is the stage a WebGPU worker node runs when a student presses
// "Compile"; errors are CompileError values formatted like toolchain
// diagnostics. OpenACC source is first translated to CUDA kernels (the
// PGI-compiler role on the paper's workers).
func Compile(src string, dialect Dialect) (*Program, error) {
	if dialect == DialectOpenACC {
		cuda, err := TranslateOpenACC(src)
		if err != nil {
			return nil, err
		}
		prog, err := Compile(cuda, DialectCUDA)
		if err != nil {
			return nil, err
		}
		prog.Dialect = DialectOpenACC
		return prog, nil
	}
	prog, err := Parse(src, dialect)
	if err != nil {
		return nil, err
	}
	if err := Analyze(prog); err != nil {
		return nil, err
	}
	// Lower to the fused warp stream eagerly so the artifact is built once
	// at compile time (and cached alongside the AST in the program cache)
	// rather than on the first launch.
	prog.warpcode()
	return prog, nil
}

// Engine selects the kernel execution engine for a launch.
type Engine uint8

const (
	// EngineAuto is the warp engine.
	EngineAuto Engine = iota
	// EngineTree forces the tree-walking interpreter, the reference the
	// warp engine is differentially tested against.
	EngineTree
	// EngineWarp forces the warp-vectorized bytecode engine, which decodes
	// each instruction once per warp instead of once per thread. Launches
	// the warp engine cannot serve exactly (SchedSeed-permuted serial
	// order, warps wider than maxWarpLanes, lowering failure) fall back to
	// the tree walker.
	EngineWarp
)

// Arg is a kernel launch argument.
type Arg struct {
	v Value
}

// GlobalPtr builds a kernel argument for a device global-memory pointer
// with the given element type.
func GlobalPtr(p gpusim.Ptr, elem *Type) Arg {
	t := PtrTo(elem, SpaceGlobal)
	return Arg{v: ptrValue(t, Pointer{Space: SpaceGlobal, Elem: elem, Glob: p})}
}

// FloatPtr builds a float* argument.
func FloatPtr(p gpusim.Ptr) Arg { return GlobalPtr(p, TypeFloat) }

// IntPtr builds an int* argument.
func IntPtr(p gpusim.Ptr) Arg { return GlobalPtr(p, TypeInt) }

// UCharPtr builds an unsigned char* argument.
func UCharPtr(p gpusim.Ptr) Arg { return GlobalPtr(p, TypeUChar) }

// Int builds an int scalar argument.
func Int(i int) Arg { return Arg{v: intValue(TypeInt, int64(i))} }

// Float builds a float scalar argument.
func Float(f float32) Arg { return Arg{v: floatValue(float64(f))} }

// LaunchOpts configures a kernel launch.
type LaunchOpts struct {
	Grid           gpusim.Dim3
	Block          gpusim.Dim3
	SharedMemBytes int    // dynamic shared memory, beyond static __shared__
	MaxSteps       int64  // per-thread interpreter step budget; 0 = default
	Engine         Engine // execution engine; EngineAuto is the warp engine
	SchedSeed      uint64 // barrier-free thread-order permutation seed; 0 = natural order
}

// DefaultMaxSteps bounds per-thread interpretation; it corresponds to the
// per-job execution time limit the platform enforces (§III-C).
const DefaultMaxSteps = 4 << 20

// Launch runs the named kernel on dev. Argument count and types must match
// the kernel's parameters (scalars convert; pointers must point to the
// declared element type).
func (p *Program) Launch(dev *gpusim.Device, kernel string, opts LaunchOpts, args ...Arg) (*gpusim.LaunchStats, error) {
	fn := p.Kernel(kernel)
	if fn == nil {
		return nil, fmt.Errorf("minicuda: no kernel named %q (have %v)", kernel, p.Kernels())
	}
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("minicuda: kernel %q takes %d arguments, got %d",
			kernel, len(fn.Params), len(args))
	}
	bound := make([]Value, len(args))
	for i, a := range args {
		pt := fn.Params[i].Type
		av := a.v
		if pt.Kind == KPtr {
			if av.T == nil || av.T.Kind != KPtr {
				return nil, fmt.Errorf("minicuda: argument %d of %q must be a pointer (%s)",
					i+1, kernel, pt)
			}
			if !av.T.Elem.Equal(pt.Elem) && pt.Elem.Kind != KVoid {
				return nil, fmt.Errorf("minicuda: argument %d of %q: have %s, want %s",
					i+1, kernel, av.T, pt)
			}
			q := av.P
			q.Elem = pt.Elem
			bound[i] = ptrValue(pt, q)
		} else {
			bound[i] = convert(av, pt)
		}
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	cfg := gpusim.LaunchConfig{
		Grid:           opts.Grid,
		Block:          opts.Block,
		SharedMemBytes: fn.SharedUse + opts.SharedMemBytes,
		NoBarriers:     !p.usesBarrier,
		SchedSeed:      opts.SchedSeed,
	}
	// SchedSeed permutes per-thread serial order, which a lockstep warp
	// cannot reproduce; overly wide warps exceed the engine's lane
	// bookkeeping. Both run on the tree walker, as does a program that
	// could not be lowered.
	if opts.Engine != EngineTree && opts.SchedSeed == 0 && dev.Props().WarpSize <= maxWarpLanes {
		if wp := p.warpcode(); wp != nil {
			kfn := wp.bc.funcs[fn]
			return dev.LaunchWarp(kernel, cfg, func(wc *gpusim.WarpCtx) (bool, error) {
				return wp.run(wc, kfn, bound, maxSteps)
			})
		}
	}
	insts := &instances{ids: make(map[instance]uint32)}
	return dev.Launch(kernel, cfg, func(tc *gpusim.ThreadCtx) error {
		th := &thread{prog: p, tc: tc, maxSteps: maxSteps, dyn: fn.SharedUse, insts: insts}
		fr := make([]Value, fn.NumSlots)
		for i, pd := range fn.Params {
			fr[pd.Sym.Slot] = bound[i]
		}
		_, err := th.execBlock(fr, fn.Body)
		return err
	})
}

// LoadConstant copies host data into the device constant memory backing the
// named __constant__ variable (the host-side cudaMemcpyToSymbol).
func (p *Program) LoadConstant(dev *gpusim.Device, name string, data []byte) error {
	off, ok := p.ConstOffset(name)
	if !ok {
		return fmt.Errorf("minicuda: no __constant__ variable named %q", name)
	}
	return dev.CopyToConst(off, data)
}
