// Package feedback implements the paper's stated future work (§VIII):
// "automated feedback to students and on-demand help/hints during
// development". It turns the facts of one attempt into ranked,
// student-facing hints: the Outcome's fault (labs.FaultOf), its check
// result and kernel performance counters, and kernelcheck's diagnostics
// for the attempted source. It reads neither the source nor any error
// text. A hint points at the class of mistake the facts show (the
// pedagogy) without writing the fix; an attempt stored without those
// facts gets the generic hint for its state.
package feedback

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
)

// Hint is one piece of automated feedback.
type Hint struct {
	Code       string  `json:"code"`  // stable identifier, e.g. "missing-bounds-check"
	Title      string  `json:"title"` // one-line summary
	Detail     string  `json:"detail"`
	Confidence float64 `json:"confidence"` // 0..1; hints are sorted by it
}

// Analyze turns an attempt's outcome and the diagnostics of its source
// into hints, most confident first. A nil outcome (no attempt yet) yields
// guidance to run first.
func Analyze(l *labs.Lab, o *labs.Outcome, diags []kernelcheck.Diagnostic) []Hint {
	if o == nil {
		return []Hint{{"run-first", "Run your code against a dataset",
			"Hints are generated from compile, run, and correctness results. Use Compile & Run on a dataset first.", 1}}
	}
	f := o.Fault
	if f == nil {
		f = &labs.Fault{}
	}
	var hints []Hint
	switch {
	case !o.Compiled:
		hints = compileHints(l, f, o.CompileError)
	case o.RuntimeError != "":
		hints = runtimeHints(f, o.RuntimeError, diags)
	case !o.Correct:
		hints = wrongAnswerHints(o, diags)
	default:
		hints = performanceHints(l, o)
		if len(hints) == 0 {
			hints = append(hints, Hint{"correct", "Solution is correct",
				"This dataset passes. Run the remaining datasets, answer the questions, and submit for grading.", 1})
		}
	}
	sort.SliceStable(hints, func(i, j int) bool { return hints[i].Confidence > hints[j].Confidence })
	return hints
}

// firstDiag returns the first diagnostic of one of the rules, or nil.
func firstDiag(diags []kernelcheck.Diagnostic, rules ...string) *kernelcheck.Diagnostic {
	for i := range diags {
		if slices.Contains(rules, diags[i].ID) {
			return &diags[i]
		}
	}
	return nil
}

// ---- Compile diagnostics ---------------------------------------------------------

func compileHints(l *labs.Lab, f *labs.Fault, msg string) []Hint {
	var hints []Hint
	switch {
	case f.Code == labs.FaultUndeclared:
		detail := fmt.Sprintf("The compiler does not know %q. Check the spelling, or declare it before use.", f.Name)
		if strings.Contains(f.Name, "syncthread") {
			detail = "Did you mean __syncthreads()? Note the double underscores and the trailing s."
		}
		hints = append(hints, Hint{"undeclared-identifier", "Undeclared identifier", detail, 0.95})
	case f.Code == labs.FaultExpected && f.Name == ";":
		hints = append(hints, Hint{"missing-semicolon", "Missing semicolon",
			"A statement before the reported position is missing its terminating semicolon: " + msg, 0.9})
	case f.Code == labs.FaultExpected && f.Name == ")":
		hints = append(hints, Hint{"unbalanced-parens", "Unbalanced parentheses",
			"Check for a missing closing parenthesis near the reported position: " + msg, 0.85})
	case f.Code == labs.FaultWrongDialect && l.Dialect.String() == "OpenCL":
		hints = append(hints, Hint{"wrong-dialect", "CUDA function in an OpenCL lab",
			"This lab compiles with the OpenCL toolchain. Use get_global_id(0) and friends instead of CUDA builtins.", 0.95})
	case f.Code == labs.FaultWrongDialect:
		hints = append(hints, Hint{"wrong-dialect", "OpenCL function in a CUDA lab",
			"This lab compiles with the CUDA toolchain. Use blockIdx/blockDim/threadIdx instead of the get_*_id functions.", 0.95})
	case f.Code == labs.FaultDim3Member:
		hints = append(hints, Hint{"dim3-member", f.Name + " needs a component",
			"threadIdx, blockIdx, blockDim and gridDim are 3-component vectors: write " + f.Name + ".x (or .y/.z).", 0.95})
	}
	return append(hints, Hint{"compile-error", "Compilation failed", msg, 0.5})
}

// ---- Runtime faults ---------------------------------------------------------------

func runtimeHints(f *labs.Fault, msg string, diags []kernelcheck.Diagnostic) []Hint {
	var hints []Hint
	switch {
	case f.Code == labs.FaultConstWrite:
		hints = append(hints, Hint{"const-write", "Write to __constant__ memory",
			"Constant memory is read-only from device code; the host loads it before launch. " +
				"Write your results to the output buffer instead.", 0.95})
	case f.Code == labs.FaultOutOfBounds && f.Offset >= f.Alloc:
		// Past the end: the threads of the grid's last, rounded-up block.
		detail := fmt.Sprintf("A thread accessed memory past the end of a %d-byte %s buffer. ", f.Alloc, f.Name)
		if f.Name == "shared" {
			detail += "Check the index of your __shared__ array: it must stay below the array's length for every thread of the block."
		} else {
			detail += "The grid is rounded up to whole blocks, so the extra threads run too: compute the global " +
				"index and guard the body with `if (i < len)` (see the lecture on thread-to-data mapping)."
		}
		hints = append(hints, Hint{"missing-bounds-check", "Out-of-bounds memory access", detail, 0.95})
	case f.Code == labs.FaultOutOfBounds && f.Offset < 0:
		hints = append(hints, Hint{"negative-index", "Access before the start of a buffer",
			fmt.Sprintf("A thread accessed memory before the start of a %d-byte %s buffer, so an index came out negative. "+
				"Check the index arithmetic, such as a halo offset like i - 1, and guard the low end too.", f.Alloc, f.Name), 0.9})
	case f.Code == labs.FaultOutOfBounds || f.Code == labs.FaultIllegalAccess:
		hints = append(hints, Hint{"missing-bounds-check", "Out-of-bounds memory access",
			"A thread read or wrote outside an allocation. The most common cause is a missing " +
				"boundary check: the grid usually launches more threads than there are elements, so " +
				"guard your accesses with something like `if (i < len)`.", 0.7})
	case f.Code == labs.FaultBarrierDivergence:
		h := Hint{"divergent-syncthreads", "Barrier divergence", "__syncthreads() must be reached by every thread of the block.", 0.7}
		if d := firstDiag(diags, kernelcheck.RuleBarrierDivergence, kernelcheck.RuleBarrierExit, kernelcheck.RuleBarrierCallDiv); d != nil {
			h.Confidence = 0.95
			h.Detail = fmt.Sprintf("Some threads of the block skip the barrier kernelcheck flags at line %s (%s). "+
				"Every thread of the block must reach every barrier: hoist the __syncthreads() out of the "+
				"divergent branch, or past the early return, and make boundary threads participate with "+
				"neutral work (e.g. loading 0 into the shared tile).", d.Pos, d.ID)
		}
		hints = append(hints, h)
	case f.Code == labs.FaultStepLimit:
		hints = append(hints, Hint{"time-limit", "Execution time limit exceeded",
			"Your kernel ran past the per-thread step limit, the platform's execution time limit (§III-C). " +
				"Check loop exit conditions: does every loop make progress toward termination on every thread?", 0.9})
	case f.Code == labs.FaultDivByZero:
		hints = append(hints, Hint{"div-by-zero", "Integer division by zero",
			"An integer division or modulo had a zero divisor. Check block/grid arithmetic " +
				"and any histogram-bucket or stride computations.", 0.9})
	case f.Code == labs.FaultCallDepth:
		hints = append(hints, Hint{"call-depth", "Device call stack overflow",
			"Device-function calls nested deeper than the device's call stack. Check that every " +
				"recursion reaches its base case, or rewrite it as a loop.", 0.9})
	case f.Code == labs.FaultMissingKernel:
		hints = append(hints, Hint{"wrong-kernel-name", "Kernel name does not match the lab harness",
			fmt.Sprintf("The harness launches a kernel named %q, which your program does not define. "+
				"Keep the kernel signature from the skeleton; the harness launches it by name.", f.Name), 0.95})
	}
	return append(hints, Hint{"runtime-error", "Kernel execution failed", msg, 0.4})
}

// ---- Wrong answers ------------------------------------------------------------------

func wrongAnswerHints(o *labs.Outcome, diags []kernelcheck.Diagnostic) []Hint {
	var hints []Hint
	switch idx := o.FirstBad; {
	case o.Total <= 0 || idx < 0:
		// Stored without the check's facts, or the lengths differ.
	case idx == 0:
		hints = append(hints, Hint{"first-element-wrong", "Output is wrong from the first element",
			"Element 0 already mismatches, so the core formula (not the boundaries) is " +
				"likely wrong. Re-derive the expression for one output element by hand and compare.", 0.8})
	case idx >= o.Total*9/10:
		hints = append(hints, Hint{"boundary-wrong", "Mismatch near the end of the output",
			fmt.Sprintf("The first wrong value is element %d of %d — a boundary problem. "+
				"Check the guard on the last partial block and any halo/ghost-cell handling.", idx, o.Total), 0.85})
	default:
		hints = append(hints, Hint{"interior-wrong", "Mismatch in the interior of the output",
			fmt.Sprintf("First mismatch at element %d of %d. If boundaries are right but the "+
				"interior is wrong, suspect the index arithmetic (row/column swapped?) or a "+
				"missing __syncthreads() between writing and reading shared memory.", idx, o.Total), 0.6})
	}
	var sharedOps, barriers int64
	for _, k := range o.Kernels {
		sharedOps += k.SharedOps
		barriers += k.Barriers
	}
	race := firstDiag(diags, kernelcheck.RuleRace, kernelcheck.RuleRaceCall, kernelcheck.RuleRaceMaybe)
	switch {
	case sharedOps > 0 && barriers == 0:
		hints = append(hints, Hint{"missing-syncthreads", "Shared memory without __syncthreads()",
			"Your kernels accessed __shared__ memory but never reached a barrier. Threads read tiles " +
				"before their neighbours finish writing them; add __syncthreads() after the load and " +
				"after the use.", 0.9})
	case race != nil:
		hints = append(hints, Hint{"missing-syncthreads", "Shared memory without __syncthreads()",
			fmt.Sprintf("kernelcheck finds a shared-memory race at line %s (%s): one thread reads what another "+
				"writes with no barrier between them. Add __syncthreads() between the write and the read.", race.Pos, race.ID), 0.9})
	}
	return append(hints, Hint{"wrong-answer", "Output does not match the expected results", o.CheckMessage, 0.3})
}

// ---- Performance -------------------------------------------------------------------

func performanceHints(l *labs.Lab, o *labs.Outcome) []Hint {
	var hints []Hint
	var gTx, sOps, accesses int64
	for _, k := range o.Kernels {
		gTx += k.GlobalTx
		sOps += k.SharedOps
		accesses += k.GlobalLoads + k.GlobalStores
	}
	if slices.Contains(l.Rubric.Keywords, "__shared__") && sOps == 0 {
		hints = append(hints, Hint{"consider-tiling", "Correct, but no shared-memory tiling",
			fmt.Sprintf("This lab's rubric awards points for __shared__ usage, and your kernel "+
				"issued %d global memory transactions with no shared-memory traffic. Stage reused "+
				"data in a __shared__ tile to cut global traffic (the lecture predicts ~TILE_WIDTH×).", gTx), 0.85})
	}
	// Rough coalescing check: far more transactions than accesses/32
	// suggests strided access.
	if gTx > 0 && sOps > 0 && accesses > 0 && gTx*8 > accesses {
		hints = append(hints, Hint{"uncoalesced-access", "Global accesses look uncoalesced",
			fmt.Sprintf("Your kernels issued %d global transactions for %d accesses "+
				"(~%.1f accesses per 128-byte transaction; coalesced code reaches ~32). Make "+
				"consecutive threads touch consecutive addresses.", gTx, accesses, float64(accesses)/float64(gTx)), 0.6})
	}
	return hints
}
