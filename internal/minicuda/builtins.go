package minicuda

// Builtin function registry: the device intrinsics and math functions the
// course labs use. Each entry checks argument count; result types that
// depend on the arguments (atomics) are computed in resolveCall.

type builtinSig struct {
	name    string
	minArgs int
	maxArgs int
	ret     *Type // nil means computed from args
	special bool  // uses the SFU cost path
	opencl  bool  // OpenCL-only
	cuda    bool  // CUDA-only
}

var builtinTable = map[string]builtinSig{
	// Synchronization.
	"__syncthreads": {name: "__syncthreads", ret: TypeVoid, cuda: true},
	"barrier":       {name: "barrier", minArgs: 0, maxArgs: 1, ret: TypeVoid, opencl: true},
	"__threadfence": {name: "__threadfence", ret: TypeVoid, cuda: true},

	// Atomics (CUDA spellings; OpenCL's atomic_add maps onto the same).
	"atomicAdd":  {name: "atomicAdd", minArgs: 2, maxArgs: 2},
	"atomicSub":  {name: "atomicSub", minArgs: 2, maxArgs: 2},
	"atomicMax":  {name: "atomicMax", minArgs: 2, maxArgs: 2},
	"atomicMin":  {name: "atomicMin", minArgs: 2, maxArgs: 2},
	"atomicExch": {name: "atomicExch", minArgs: 2, maxArgs: 2},
	"atomicCAS":  {name: "atomicCAS", minArgs: 3, maxArgs: 3},
	"atomic_add": {name: "atomicAdd", minArgs: 2, maxArgs: 2, opencl: true},

	// OpenCL work-item functions.
	"get_global_id":   {name: "get_global_id", minArgs: 1, maxArgs: 1, ret: TypeInt, opencl: true},
	"get_local_id":    {name: "get_local_id", minArgs: 1, maxArgs: 1, ret: TypeInt, opencl: true},
	"get_group_id":    {name: "get_group_id", minArgs: 1, maxArgs: 1, ret: TypeInt, opencl: true},
	"get_local_size":  {name: "get_local_size", minArgs: 1, maxArgs: 1, ret: TypeInt, opencl: true},
	"get_num_groups":  {name: "get_num_groups", minArgs: 1, maxArgs: 1, ret: TypeInt, opencl: true},
	"get_global_size": {name: "get_global_size", minArgs: 1, maxArgs: 1, ret: TypeInt, opencl: true},

	// Math: single-precision intrinsics (SFU-costed where hardware uses it).
	"sqrtf":  {name: "sqrtf", minArgs: 1, maxArgs: 1, ret: TypeFloat, special: true},
	"sqrt":   {name: "sqrtf", minArgs: 1, maxArgs: 1, ret: TypeFloat, special: true},
	"rsqrtf": {name: "rsqrtf", minArgs: 1, maxArgs: 1, ret: TypeFloat, special: true},
	"expf":   {name: "expf", minArgs: 1, maxArgs: 1, ret: TypeFloat, special: true},
	"exp":    {name: "expf", minArgs: 1, maxArgs: 1, ret: TypeFloat, special: true},
	"logf":   {name: "logf", minArgs: 1, maxArgs: 1, ret: TypeFloat, special: true},
	"log":    {name: "logf", minArgs: 1, maxArgs: 1, ret: TypeFloat, special: true},
	"powf":   {name: "powf", minArgs: 2, maxArgs: 2, ret: TypeFloat, special: true},
	"pow":    {name: "powf", minArgs: 2, maxArgs: 2, ret: TypeFloat, special: true},
	"sinf":   {name: "sinf", minArgs: 1, maxArgs: 1, ret: TypeFloat, special: true},
	"cosf":   {name: "cosf", minArgs: 1, maxArgs: 1, ret: TypeFloat, special: true},
	"fabsf":  {name: "fabsf", minArgs: 1, maxArgs: 1, ret: TypeFloat},
	"fabs":   {name: "fabsf", minArgs: 1, maxArgs: 1, ret: TypeFloat},
	"floorf": {name: "floorf", minArgs: 1, maxArgs: 1, ret: TypeFloat},
	"floor":  {name: "floorf", minArgs: 1, maxArgs: 1, ret: TypeFloat},
	"ceilf":  {name: "ceilf", minArgs: 1, maxArgs: 1, ret: TypeFloat},
	"ceil":   {name: "ceilf", minArgs: 1, maxArgs: 1, ret: TypeFloat},
	"fminf":  {name: "fminf", minArgs: 2, maxArgs: 2, ret: TypeFloat},
	"fmaxf":  {name: "fmaxf", minArgs: 2, maxArgs: 2, ret: TypeFloat},
	"min":    {name: "min", minArgs: 2, maxArgs: 2},
	"max":    {name: "max", minArgs: 2, maxArgs: 2},
	"abs":    {name: "abs", minArgs: 1, maxArgs: 1, ret: TypeInt},
}

func (a *analyzer) call(x *Call) (*Type, error) {
	// User device function?
	if fn, ok := a.prog.functions[x.Name]; ok {
		if fn.IsKernel {
			return nil, errAt(x.Tok(), "kernel %q cannot be called from device code", x.Name)
		}
		if len(x.Args) != len(fn.Params) {
			return nil, errAt(x.Tok(), "function %q expects %d arguments, got %d",
				x.Name, len(fn.Params), len(x.Args))
		}
		for i, arg := range x.Args {
			t, err := a.expr(arg)
			if err != nil {
				return nil, err
			}
			if !convertible(t, fn.Params[i].Type) {
				return nil, errAt(arg.Tok(), "argument %d of %q: cannot convert %s to %s",
					i+1, x.Name, t, fn.Params[i].Type)
			}
		}
		x.Fn = fn
		x.typ = fn.Ret
		return fn.Ret, nil
	}

	sig, ok := builtinTable[x.Name]
	if !ok {
		return nil, errCode(x.Tok(), CodeUndeclared, x.Name, "call to undeclared function %q", x.Name)
	}
	if sig.opencl && a.prog.Dialect != DialectOpenCL {
		return nil, errCode(x.Tok(), CodeWrongDialect, x.Name, "%q is an OpenCL builtin; this lab uses CUDA", x.Name)
	}
	if sig.cuda && a.prog.Dialect != DialectCUDA {
		return nil, errCode(x.Tok(), CodeWrongDialect, x.Name, "%q is a CUDA builtin; this lab uses OpenCL", x.Name)
	}
	maxArgs := sig.maxArgs
	if maxArgs == 0 && sig.minArgs == 0 {
		// zero-arg builtin like __syncthreads
	}
	if len(x.Args) < sig.minArgs || len(x.Args) > maxArgs {
		return nil, errAt(x.Tok(), "builtin %q expects %d-%d arguments, got %d",
			x.Name, sig.minArgs, maxArgs, len(x.Args))
	}
	argTypes := make([]*Type, len(x.Args))
	for i, arg := range x.Args {
		t, err := a.expr(arg)
		if err != nil {
			return nil, err
		}
		argTypes[i] = t
	}
	x.Builtin = sig.name
	if sig.name == "__syncthreads" || sig.name == "barrier" {
		a.prog.usesBarrier = true
	}

	switch sig.name {
	case "atomicAdd", "atomicSub", "atomicMax", "atomicMin", "atomicExch", "atomicCAS":
		pt := argTypes[0]
		if pt.Kind != KPtr {
			return nil, errAt(x.Tok(), "first argument of %s must be a pointer, got %s", x.Name, pt)
		}
		elem := pt.Elem
		if !elem.IsScalar() {
			return nil, errAt(x.Tok(), "%s on unsupported element type %s", x.Name, elem)
		}
		if elem.Kind == KFloat && sig.name != "atomicAdd" && sig.name != "atomicExch" {
			return nil, errAt(x.Tok(), "%s does not support float operands", x.Name)
		}
		x.typ = elem
		return elem, nil
	case "min", "max":
		x.typ = commonType(argTypes[0], argTypes[1])
		return x.typ, nil
	}
	x.typ = sig.ret
	return sig.ret, nil
}
