// Package feedback implements the paper's stated future work (§VIII):
// "automated feedback to students and on-demand help/hints during
// development". It analyzes a failed (or slow) attempt — the compiler
// diagnostic, the runtime fault, the correctness mismatch, the source
// text, and the kernel performance counters — and produces ranked,
// student-facing hints. The analyzer is deliberately heuristic: it points
// at the class of mistake (the pedagogy) without writing the fix.
package feedback

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
)

// Hint is one piece of automated feedback.
type Hint struct {
	Code       string  `json:"code"`  // stable identifier, e.g. "missing-bounds-check"
	Title      string  `json:"title"` // one-line summary
	Detail     string  `json:"detail"`
	Confidence float64 `json:"confidence"` // 0..1; hints are sorted by it
}

// Analyze inspects an attempt outcome and returns hints, most confident
// first. A nil outcome (no attempt yet) yields guidance to run first.
func Analyze(l *labs.Lab, source string, o *labs.Outcome) []Hint {
	if o == nil {
		return []Hint{{
			Code:       "run-first",
			Title:      "Run your code against a dataset",
			Detail:     "Hints are generated from compile, run, and correctness results. Use Compile & Run on a dataset first.",
			Confidence: 1,
		}}
	}
	var hints []Hint
	add := func(h Hint) { hints = append(hints, h) }

	clean := minicuda.StripComments(source)

	switch {
	case !o.Compiled:
		hints = append(hints, compileHints(o.CompileError)...)
	case o.RuntimeError != "":
		hints = append(hints, runtimeHints(l, clean, o)...)
	case !o.Correct:
		hints = append(hints, wrongAnswerHints(l, clean, o)...)
	default:
		hints = append(hints, performanceHints(l, clean, o)...)
		if len(hints) == 0 {
			add(Hint{
				Code:       "correct",
				Title:      "Solution is correct",
				Detail:     "This dataset passes. Run the remaining datasets, answer the questions, and submit for grading.",
				Confidence: 1,
			})
		}
	}

	sort.SliceStable(hints, func(i, j int) bool { return hints[i].Confidence > hints[j].Confidence })
	return hints
}

// ---- Compile diagnostics ---------------------------------------------------------

var identRe = regexp.MustCompile(`undeclared (identifier|function) "([^"]+)"`)

func compileHints(msg string) []Hint {
	var hints []Hint
	low := strings.ToLower(msg)
	switch {
	case identRe.MatchString(msg):
		m := identRe.FindStringSubmatch(msg)
		detail := fmt.Sprintf("The compiler does not know %q. Check the spelling, or declare it before use.", m[2])
		if strings.Contains(m[2], "syncthread") {
			detail = "Did you mean __syncthreads()? Note the double underscores and the trailing s."
		}
		hints = append(hints, Hint{
			Code: "undeclared-identifier", Title: "Undeclared identifier",
			Detail: detail, Confidence: 0.95,
		})
	case strings.Contains(low, `expected ";"`):
		hints = append(hints, Hint{
			Code: "missing-semicolon", Title: "Missing semicolon",
			Detail:     "A statement before the reported position is missing its terminating semicolon: " + msg,
			Confidence: 0.9,
		})
	case strings.Contains(low, "expected") && strings.Contains(low, `")"`):
		hints = append(hints, Hint{
			Code: "unbalanced-parens", Title: "Unbalanced parentheses",
			Detail:     "Check for a missing closing parenthesis near the reported position: " + msg,
			Confidence: 0.85,
		})
	case strings.Contains(low, "opencl builtin"):
		hints = append(hints, Hint{
			Code: "wrong-dialect", Title: "OpenCL function in a CUDA lab",
			Detail:     "This lab compiles with the CUDA toolchain. Use blockIdx/blockDim/threadIdx instead of the get_*_id functions.",
			Confidence: 0.95,
		})
	case strings.Contains(low, "cuda builtin"):
		hints = append(hints, Hint{
			Code: "wrong-dialect", Title: "CUDA function in an OpenCL lab",
			Detail:     "This lab compiles with the OpenCL toolchain. Use get_global_id(0) and friends instead of CUDA builtins.",
			Confidence: 0.95,
		})
	case strings.Contains(low, ".x/.y/.z"):
		hints = append(hints, Hint{
			Code: "dim3-member", Title: "threadIdx needs a component",
			Detail:     "threadIdx, blockIdx, blockDim, and gridDim are 3-component vectors: write threadIdx.x (or .y/.z).",
			Confidence: 0.95,
		})
	}
	hints = append(hints, Hint{
		Code: "compile-error", Title: "Compilation failed",
		Detail: msg, Confidence: 0.5,
	})
	return hints
}

// ---- Runtime faults ---------------------------------------------------------------

func runtimeHints(l *labs.Lab, clean string, o *labs.Outcome) []Hint {
	var hints []Hint
	msg := o.RuntimeError
	low := strings.ToLower(msg)
	switch {
	case strings.Contains(low, "constant memory is read-only"):
		hints = append(hints, Hint{
			Code: "const-write", Title: "Write to __constant__ memory",
			Detail: "Constant memory is read-only from device code; the host loads it before launch. " +
				"Write your results to the output buffer instead.",
			Confidence: 0.95,
		})
	case strings.Contains(low, "illegal memory access"):
		conf := 0.7
		detail := "A thread read or wrote outside an allocation. The most common cause is a missing " +
			"boundary check: the grid usually launches more threads than there are elements, so " +
			"guard your accesses with something like `if (i < len)`."
		if !boundsGuardRe.MatchString(clean) {
			conf = 0.95
			detail = "Your kernel indexes global memory without any boundary check, but the grid is " +
				"rounded up to whole blocks — the extra threads run too. Compute the global index and " +
				"guard the body with `if (i < len)` (see the lecture on thread-to-data mapping)."
		}
		hints = append(hints, Hint{
			Code: "missing-bounds-check", Title: "Out-of-bounds memory access",
			Detail: detail, Confidence: conf,
		})
	case strings.Contains(low, "barrier divergence"):
		conf := 0.7
		detail := "__syncthreads() must be reached by every thread of the block."
		if syncInsideBranch(clean) {
			conf = 0.95
			detail = "You call __syncthreads() inside a conditional (or return before it on some " +
				"threads). Every thread of the block must reach every barrier: hoist the " +
				"__syncthreads() out of the divergent branch and make boundary threads participate " +
				"with neutral work (e.g. loading 0 into the shared tile)."
		}
		hints = append(hints, Hint{
			Code: "divergent-syncthreads", Title: "Barrier divergence",
			Detail: detail, Confidence: conf,
		})
	case strings.Contains(low, "time limit"):
		detail := "Your kernel exceeded the execution time limit (§III-C sets one per lab). " +
			"Check loop exit conditions — does every loop make progress toward termination?"
		if strings.Contains(clean, "while (1)") || strings.Contains(clean, "while(1)") ||
			strings.Contains(clean, "while (true)") {
			detail = "Your kernel contains an unconditional loop (`while (1)`). On WebGPU the " +
				"execution time limit terminates it; make the loop condition depend on data that changes."
		}
		hints = append(hints, Hint{
			Code: "time-limit", Title: "Execution time limit exceeded",
			Detail: detail, Confidence: 0.9,
		})
	case strings.Contains(low, "division by zero"):
		hints = append(hints, Hint{
			Code: "div-by-zero", Title: "Integer division by zero",
			Detail: "An integer division or modulo had a zero divisor. Check block/grid arithmetic " +
				"and any histogram-bucket or stride computations.",
			Confidence: 0.9,
		})
	case strings.Contains(low, "must define a __global__ kernel"):
		hints = append(hints, Hint{
			Code: "wrong-kernel-name", Title: "Kernel name does not match the lab harness",
			Detail:     msg + " — keep the kernel signature from the skeleton; the harness launches it by name.",
			Confidence: 0.95,
		})
	}
	hints = append(hints, Hint{
		Code: "runtime-error", Title: "Kernel execution failed",
		Detail: msg, Confidence: 0.4,
	})
	return hints
}

// ---- Wrong answers ------------------------------------------------------------------

var elementRe = regexp.MustCompile(`element (\d+)`)

func wrongAnswerHints(l *labs.Lab, clean string, o *labs.Outcome) []Hint {
	var hints []Hint
	if m := elementRe.FindStringSubmatch(o.CheckMessage); m != nil {
		idx, _ := strconv.Atoi(m[1])
		total := totalFromTrace(o.Trace)
		switch {
		case idx == 0:
			hints = append(hints, Hint{
				Code: "first-element-wrong", Title: "Output is wrong from the first element",
				Detail: "Element 0 already mismatches, so the core formula (not the boundaries) is " +
					"likely wrong. Re-derive the expression for one output element by hand and compare.",
				Confidence: 0.8,
			})
		case total > 0 && idx >= total*9/10:
			hints = append(hints, Hint{
				Code: "boundary-wrong", Title: "Mismatch near the end of the output",
				Detail: fmt.Sprintf("The first wrong value is element %d of ~%d — a boundary problem. "+
					"Check the guard on the last partial block and any halo/ghost-cell handling.", idx, total),
				Confidence: 0.85,
			})
		default:
			hints = append(hints, Hint{
				Code: "interior-wrong", Title: "Mismatch in the interior of the output",
				Detail: fmt.Sprintf("First mismatch at element %d. If boundaries are right but the "+
					"interior is wrong, suspect the index arithmetic (row/column swapped?) or a "+
					"missing __syncthreads() between writing and reading shared memory.", idx),
				Confidence: 0.6,
			})
		}
	}
	if usesShared(clean) && !strings.Contains(clean, "__syncthreads") && l.Dialect.String() == "CUDA" {
		hints = append(hints, Hint{
			Code: "missing-syncthreads", Title: "Shared memory without __syncthreads()",
			Detail: "You stage data in __shared__ memory but never synchronize. Threads read tiles " +
				"before their neighbours finish writing them; add __syncthreads() after the load and " +
				"after the use.",
			Confidence: 0.9,
		})
	}
	hints = append(hints, Hint{
		Code: "wrong-answer", Title: "Output does not match the expected results",
		Detail: o.CheckMessage, Confidence: 0.3,
	})
	return hints
}

// ---- Performance -------------------------------------------------------------------

func performanceHints(l *labs.Lab, clean string, o *labs.Outcome) []Hint {
	var hints []Hint
	wantsShared := false
	for _, kw := range l.Rubric.Keywords {
		if kw == "__shared__" {
			wantsShared = true
		}
	}
	var gTx, sOps int64
	for _, k := range o.Kernels {
		gTx += k.GlobalTx
		sOps += k.SharedOps
	}
	if wantsShared && !usesShared(clean) {
		hints = append(hints, Hint{
			Code: "consider-tiling", Title: "Correct, but no shared-memory tiling",
			Detail: fmt.Sprintf("This lab's rubric awards points for __shared__ usage, and your kernel "+
				"issued %d global memory transactions with no shared-memory traffic. Stage reused "+
				"data in a __shared__ tile to cut global traffic (the lecture predicts ~TILE_WIDTH×).", gTx),
			Confidence: 0.85,
		})
	}
	if gTx > 0 && sOps > 0 {
		// Rough coalescing check: far more transactions than loads/32
		// suggests strided access.
		var loads int64
		for _, k := range o.Kernels {
			loads += k.GlobalLoads + k.GlobalStores
		}
		if loads > 0 && gTx*8 > loads {
			hints = append(hints, Hint{
				Code: "uncoalesced-access", Title: "Global accesses look uncoalesced",
				Detail: fmt.Sprintf("Your kernels issued %d global transactions for %d accesses "+
					"(~%.1f accesses per 128-byte transaction; coalesced code reaches ~32). Make "+
					"consecutive threads touch consecutive addresses.", gTx, loads, float64(loads)/float64(gTx)),
				Confidence: 0.6,
			})
		}
	}
	return hints
}

// ---- Source heuristics ----------------------------------------------------------------

// boundsGuardRe matches an if whose condition holds a comparison — the
// shape of a boundary check.
var boundsGuardRe = regexp.MustCompile(`if\s*\([^)]*[<>]`)

// usesShared reports whether the source declares shared memory.
func usesShared(clean string) bool {
	return strings.Contains(clean, "__shared__") || strings.Contains(clean, "__local")
}

var syncAfterIfRe = regexp.MustCompile(`if\s*\([^{;]*\)\s*__syncthreads`)

// syncInsideBranch detects a __syncthreads() call lexically inside a block
// opened by an if/else — the divergent-barrier pattern the tiled labs warn
// about. It is a heuristic: a barrier after an early `return;` in the same
// function also counts.
func syncInsideBranch(clean string) bool {
	if syncAfterIfRe.MatchString(clean) {
		return true // braceless `if (...) __syncthreads();`
	}
	type frame struct{ conditional bool }
	var stack []frame
	for i := 0; i < len(clean); i++ {
		switch clean[i] {
		case '{':
			stack = append(stack, frame{conditional: openedByConditional(clean, i)})
		case '}':
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		case '_':
			if strings.HasPrefix(clean[i:], "__syncthreads") {
				for _, f := range stack {
					if f.conditional {
						return true
					}
				}
			}
		}
	}
	// Early return before a later barrier also diverges when only some
	// threads take it.
	retPos := strings.Index(clean, "return;")
	syncPos := strings.LastIndex(clean, "__syncthreads")
	return retPos >= 0 && syncPos >= 0 && retPos < syncPos
}

// openedByConditional reports whether the '{' at bracePos follows an
// if (...) header or an else keyword.
func openedByConditional(s string, bracePos int) bool {
	i := bracePos - 1
	for i >= 0 && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i--
	}
	if i < 0 {
		return false
	}
	if s[i] == ')' {
		// Walk back over the condition to its '(' and read the keyword.
		depth := 0
		for ; i >= 0; i-- {
			if s[i] == ')' {
				depth++
			} else if s[i] == '(' {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		return lastWordBefore(s, i) == "if"
	}
	return lastWordBefore(s, i+1) == "else"
}

// lastWordBefore returns the identifier ending immediately before pos
// (skipping trailing whitespace).
func lastWordBefore(s string, pos int) string {
	i := pos - 1
	for i >= 0 && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i--
	}
	end := i + 1
	for i >= 0 && (s[i] >= 'a' && s[i] <= 'z' || s[i] >= 'A' && s[i] <= 'Z' || s[i] == '_') {
		i--
	}
	return s[i+1 : end]
}

// totalFromTrace extracts the input length from the wbLog line "The input
// length is N" when present, to judge whether a mismatch is near the end.
var lengthRe = regexp.MustCompile(`input length is (\d+)`)

func totalFromTrace(trace string) int {
	if m := lengthRe.FindStringSubmatch(trace); m != nil {
		n, _ := strconv.Atoi(m[1])
		return n
	}
	return 0
}
