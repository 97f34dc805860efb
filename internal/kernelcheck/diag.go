// Package kernelcheck statically analyzes type-checked minicuda kernels
// and reports the classic GPU-course bugs — barrier divergence,
// shared-memory races, out-of-bounds indexing — plus performance
// advisories (uncoalesced global access, shared bank conflicts) and
// hygiene findings (unused variables, dead stores, unreachable code),
// before any simulator cycle is spent. Diagnostics carry a stable rule
// ID, a severity, and a fix hint, and ride the job pipeline back to the
// student alongside compile errors.
package kernelcheck

import (
	"fmt"
	"sort"
	"strings"

	"webgpu/internal/minicuda"
)

// Severity ranks a diagnostic. Errors are provable bugs (the program
// traps or is nondeterministic on some legal schedule); warnings are
// possible bugs the analysis cannot prove either way; info covers
// advisories and hygiene.
type Severity string

// Severities, from most to least severe.
const (
	SevError Severity = "error"
	SevWarn  Severity = "warn"
	SevInfo  Severity = "info"
)

// rank orders severities for comparisons; higher is more severe.
func (s Severity) rank() int {
	switch s {
	case SevError:
		return 3
	case SevWarn:
		return 2
	case SevInfo:
		return 1
	}
	return 0
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	ID       string   `json:"id"`       // stable rule ID, e.g. "KC-RACE"
	Severity Severity `json:"severity"` // error | warn | info
	Kernel   string   `json:"kernel,omitempty"`
	Pos      string   `json:"pos"` // "line:col" in the submitted source
	Message  string   `json:"message"`
	Hint     string   `json:"hint,omitempty"`
}

func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s[%s]", d.Pos, d.Severity, d.ID)
	if d.Kernel != "" {
		fmt.Fprintf(&sb, " %s", d.Kernel)
	}
	fmt.Fprintf(&sb, ": %s", d.Message)
	if d.Hint != "" {
		fmt.Fprintf(&sb, " (hint: %s)", d.Hint)
	}
	return sb.String()
}

// Rule describes one analyzer rule, for metric registration and docs.
type Rule struct {
	ID       string
	Severity Severity // worst severity the rule can emit
	Summary  string
}

// RulesetVersion names the analyzer's rule + summary semantics. It is
// mixed into every incremental cache key and into the progcache
// diagnostics artifact name, so any change to rules, message text, or
// summary precision must bump it to invalidate cached results.
const RulesetVersion = "kc2"

// Rule IDs.
const (
	RuleBarrierDivergence = "KC-BARRIER-DIV"
	RuleBarrierExit       = "KC-BARRIER-EXIT"
	RuleBarrierCallDiv    = "KC-BARRIER-CALL-DIV"
	RuleRace              = "KC-RACE"
	RuleRaceCall          = "KC-RACE-CALL"
	RuleRaceMaybe         = "KC-RACE-MAYBE"
	RuleOOB               = "KC-OOB"
	RuleOOBMaybe          = "KC-OOB-MAYBE"
	RuleCoalesce          = "KC-COALESCE"
	RuleBankConflict      = "KC-BANK"
	RuleUnused            = "KC-UNUSED"
	RuleDeadStore         = "KC-DEAD-STORE"
	RuleUnreachable       = "KC-UNREACHABLE"
	RuleInternal          = "KC-INTERNAL"
)

var rules = []Rule{
	{RuleBarrierDivergence, SevWarn, "__syncthreads under thread-dependent control flow"},
	{RuleBarrierExit, SevWarn, "__syncthreads reachable after a thread-dependent early return"},
	{RuleBarrierCallDiv, SevWarn, "device-function call reaches __syncthreads under thread-dependent control flow"},
	{RuleRace, SevError, "provable shared-memory race within one barrier interval"},
	{RuleRaceCall, SevError, "provable shared-memory race through a device-function call"},
	{RuleRaceMaybe, SevWarn, "possible shared-memory race within one barrier interval"},
	{RuleOOB, SevError, "provable out-of-bounds access (traps on the device)"},
	{RuleOOBMaybe, SevWarn, "possible or logical out-of-bounds access"},
	{RuleCoalesce, SevInfo, "strided global access defeats coalescing"},
	{RuleBankConflict, SevInfo, "strided shared access causes bank conflicts"},
	{RuleUnused, SevInfo, "variable declared but never used"},
	{RuleDeadStore, SevInfo, "variable assigned but never read"},
	{RuleUnreachable, SevInfo, "unreachable code"},
	{RuleInternal, SevInfo, "analyzer internal error (analysis incomplete)"},
}

// Rules lists every rule the analyzer can fire, in stable order. Metric
// exporters enumerate this at registration so per-rule series exist from
// process start rather than appearing lazily on first fire.
func Rules() []Rule {
	out := make([]Rule, len(rules))
	copy(out, rules)
	return out
}

// MetricName maps a rule ID to its fire-count metric name.
func MetricName(ruleID string) string {
	return "kernelcheck_fire_" + strings.ToLower(strings.ReplaceAll(ruleID, "-", "_"))
}

// ErrorCount counts error-severity diagnostics.
func ErrorCount(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}

// Analyze runs every pass over each kernel of a compiled program and
// returns the findings sorted by source position. It never fails: a
// panic inside a pass (an analyzer bug, not a student bug) degrades to a
// KC-INTERNAL info diagnostic so the job pipeline keeps running. Calls
// into device functions are analyzed interprocedurally through effect
// summaries (see summary.go).
func Analyze(prog *minicuda.Program) []Diagnostic {
	return analyzeProgram(prog, nil).Diagnostics
}

// analyzeProgram is the shared full/incremental pipeline. With a nil
// engine every function is analyzed from scratch; with an engine,
// functions whose cache key matches reuse both their summary and their
// diagnostics. Both paths run the exact same per-function passes in the
// same order, which is what makes incremental output byte-identical to
// a full run.
func analyzeProgram(prog *minicuda.Program, inc *Incremental) Result {
	res := Result{Total: len(prog.Funcs)}
	sums := summarizeFlags(prog)
	calls := calleeMap(prog)

	var keys map[*minicuda.Function]string
	var cacheable map[*minicuda.Function]bool
	if inc != nil {
		keys, cacheable = computeKeys(prog, calls)
	}
	hit := func(fn *minicuda.Function) *cachedFn {
		if inc == nil || !cacheable[fn] {
			return nil
		}
		if e := inc.funcs[fn.Name]; e != nil && e.key == keys[fn] {
			return e
		}
		return nil
	}

	// Summaries, callee-before-caller: cache hits adopt the cached
	// summary verbatim (its token positions are valid — the structural
	// hash covers positions), misses recompute.
	for _, fn := range topoOrder(prog, calls) {
		if e := hit(fn); e != nil {
			*sums[fn] = *e.sum
			continue
		}
		if !fn.IsKernel {
			buildEffects(prog, fn, sums)
		}
	}

	// Per-function diagnostics in declaration order, spliced from the
	// cache where possible.
	var diags []Diagnostic
	for _, fn := range prog.Funcs {
		if e := hit(fn); e != nil {
			diags = append(diags, e.diags...)
			e.gen = inc.gen
			res.Reused++
			continue
		}
		d := analyzeFunc(prog, fn, sums)
		diags = append(diags, d...)
		res.Analyzed++
		if inc != nil && cacheable[fn] {
			sum := *sums[fn]
			inc.funcs[fn.Name] = &cachedFn{
				key:   keys[fn],
				sum:   &sum,
				diags: append([]Diagnostic(nil), d...),
				gen:   inc.gen,
			}
		}
	}
	sortDiags(diags)
	res.Diagnostics = diags
	return res
}

// AnalyzeSource compiles source in the given dialect and analyzes it.
// Compile errors are returned as-is; the analyzer only sees programs
// that passed the type checker.
func AnalyzeSource(src string, dialect minicuda.Dialect) ([]Diagnostic, error) {
	prog, err := minicuda.Compile(src, dialect)
	if err != nil {
		return nil, err
	}
	return Analyze(prog), nil
}

func analyzeFunc(prog *minicuda.Program, fn *minicuda.Function, sums map[*minicuda.Function]*fnSummary) (diags []Diagnostic) {
	defer func() {
		if r := recover(); r != nil {
			diags = append(diags, Diagnostic{
				ID:       RuleInternal,
				Severity: SevInfo,
				Kernel:   fn.Name,
				Pos:      fn.Tok().Pos(),
				Message:  fmt.Sprintf("analysis of %q aborted: %v", fn.Name, r),
			})
		}
	}()
	if fn.IsKernel {
		a := newAnalyzer(prog, fn, sums)
		a.run()
		diags = append(diags, a.diags...)
	}
	diags = append(diags, hygiene(fn)...)
	return diags
}

// sortDiags orders diagnostics by position (line, then column), then by
// severity (most severe first), then rule ID, and drops exact
// duplicates, giving the corpus a stable golden output.
func sortDiags(diags []Diagnostic) {
	lineCol := func(pos string) (int, int) {
		var l, c int
		fmt.Sscanf(pos, "%d:%d", &l, &c)
		return l, c
	}
	sort.SliceStable(diags, func(i, j int) bool {
		li, ci := lineCol(diags[i].Pos)
		lj, cj := lineCol(diags[j].Pos)
		if li != lj {
			return li < lj
		}
		if ci != cj {
			return ci < cj
		}
		if diags[i].Severity != diags[j].Severity {
			return diags[i].Severity.rank() > diags[j].Severity.rank()
		}
		return diags[i].ID < diags[j].ID
	})
}
