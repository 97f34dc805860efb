package minicuda

import (
	"fmt"

	"webgpu/internal/gpusim"
)

// Compile parses and analyzes source, producing a Program ready to
// launch. This is the stage a WebGPU worker node runs when a student
// presses "Compile"; errors are CompileError values formatted like
// toolchain diagnostics. OpenACC source is first translated to CUDA
// kernels (the PGI-compiler role on the paper's workers). Compile stops
// after sema: the program lowers to warp code on its first launch, so a
// compile-only job or a draft that is never run holds none.
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
	return prog, nil
}

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
	Grid     gpusim.Dim3
	Block    gpusim.Dim3
	MaxSteps int64 // per-thread interpreter step budget; 0 = default
}

// DefaultMaxSteps bounds per-thread interpretation; it corresponds to the
// per-job execution time limit the platform enforces (§III-C).
const DefaultMaxSteps = 4 << 20

// Launch runs the named kernel on dev on the warp engine, which decodes
// each instruction once per warp instead of once per thread. Argument
// count and types must match the kernel's parameters (scalars convert;
// pointers must point to the declared element type). The first launch
// lowers the program; a tree the lowerer cannot take fails every launch
// with an internal compiler error.
func (p *Program) Launch(dev *gpusim.Device, kernel string, opts LaunchOpts, args ...Arg) (*gpusim.LaunchStats, error) {
	fn, bound, cfg, err := p.bind(kernel, opts, args)
	if err != nil {
		return nil, err
	}
	wp, err := p.warp()
	if err != nil {
		return nil, err
	}
	kfn, maxSteps := wp.bc.funcs[fn], opts.maxSteps()
	return dev.LaunchWarp(kernel, cfg, func(wc *gpusim.WarpCtx) (bool, error) {
		return wp.run(wc, kfn, bound, maxSteps)
	})
}

// LaunchTree runs the named kernel like Launch, on the tree-walking
// interpreter: the reference the warp engine is differentially tested
// against, about ten times slower. A nonzero seed permutes the order in
// which a barrier-free block calls its threads (gpusim.LaunchConfig's
// SchedSeed), an order a lockstep warp does not have; zero keeps
// ascending order.
func (p *Program) LaunchTree(dev *gpusim.Device, kernel string, opts LaunchOpts, seed uint64, args ...Arg) (*gpusim.LaunchStats, error) {
	fn, bound, cfg, err := p.bind(kernel, opts, args)
	if err != nil {
		return nil, err
	}
	cfg.SchedSeed = seed
	maxSteps := opts.maxSteps()
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

// maxSteps is the per-thread step budget: MaxSteps, or DefaultMaxSteps
// when that is unset.
func (o LaunchOpts) maxSteps() int64 {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return DefaultMaxSteps
}

// bind resolves a launch against the program: the kernel, its arguments
// converted to the parameter types, and the simulator configuration.
func (p *Program) bind(kernel string, opts LaunchOpts, args []Arg) (*Function, []Value, gpusim.LaunchConfig, error) {
	var cfg gpusim.LaunchConfig
	fn := p.Kernel(kernel)
	if fn == nil {
		return nil, nil, cfg, fmt.Errorf("minicuda: no kernel named %q (have %v)", kernel, p.Kernels())
	}
	if len(args) != len(fn.Params) {
		return nil, nil, cfg, fmt.Errorf("minicuda: kernel %q takes %d arguments, got %d",
			kernel, len(fn.Params), len(args))
	}
	bound := make([]Value, len(args))
	for i, a := range args {
		pt := fn.Params[i].Type
		av := a.v
		if pt.Kind == KPtr {
			if av.T == nil || av.T.Kind != KPtr {
				return nil, nil, cfg, fmt.Errorf("minicuda: argument %d of %q must be a pointer (%s)",
					i+1, kernel, pt)
			}
			if !av.T.Elem.Equal(pt.Elem) && pt.Elem.Kind != KVoid {
				return nil, nil, cfg, fmt.Errorf("minicuda: argument %d of %q: have %s, want %s",
					i+1, kernel, av.T, pt)
			}
			q := av.P
			q.Elem = pt.Elem
			bound[i] = ptrValue(pt, q)
		} else {
			bound[i] = convert(av, pt)
		}
	}
	cfg = gpusim.LaunchConfig{
		Grid:           opts.Grid,
		Block:          opts.Block,
		SharedMemBytes: fn.SharedUse,
		NoBarriers:     !p.usesBarrier,
	}
	return fn, bound, cfg, nil
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
