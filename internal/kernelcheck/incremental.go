package kernelcheck

// Function-granular analysis cache, shared by content. Each function's
// result (effect summary and diagnostics) is stored under a hash of all
// it can depend on:
//
//	key(f) = H(preludeHash ‖ RulesetVersion ‖ structHash(f) ‖ key(c₁) ‖ Δ(c₁) ‖ …)
//
// with callees cᵢ sorted by name and Δ(c) c's first line minus f's.
// structHash counts f's lines from its first, so f hits wherever it sits;
// every position in its result lies in f or a callee, at offsets the key
// fixes, and moving them all by the lines f moved is byte-identical to
// recomputing. Functions on a call cycle are never cached.

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"slices"
	"strconv"
	"sync"

	"webgpu/internal/minicuda"
)

// Result is the outcome of one analysis run: the (position-sorted)
// diagnostics plus how much work the run actually did.
type Result struct {
	Diagnostics []Diagnostic
	Analyzed    int // functions re-analyzed this run
	Reused      int // functions spliced from cache
	Total       int // functions in the program
}

// MaxCachedFns bounds an engine. An entry of a lab function takes about
// 0.6 KiB of heap (TestEntryFootprint), so a full engine holds 2.5 MiB.
const MaxCachedFns = 4096

// protectedFns caps the entries a later run hit. A new entry starts on
// probation and eviction takes the oldest probationary one, so a burst of
// functions seen once cannot flush the ones live drafts keep hitting.
const protectedFns = MaxCachedFns * 3 / 4

// cachedFn is one function's stored analysis. It is never written after
// it is stored (its slices are clipped, so an append copies) and holds
// no pointer into the program it came from.
type cachedFn struct {
	key   string
	line  int // the function's first line in the program analyzed
	sum   fnSummary
	diags []Diagnostic
}

// slot is an engine's hold on an entry: the segment it is in.
type slot struct {
	fn        *cachedFn
	protected bool
}

// Incremental caches per-function analysis results by content, for every
// program analyzed through it: a draft's next revision, another student's
// copy of the same skeleton, a revert. Safe for concurrent use; the lock
// is held around lookups and inserts, never across an analysis. The zero
// value is not usable; call NewIncremental.
type Incremental struct {
	mu        sync.Mutex
	funcs     map[string]*list.Element // key → element holding a *slot
	probation *list.List               // front = most recently used
	protected *list.List               // front = most recently used
}

// NewIncremental returns an empty incremental analysis engine.
func NewIncremental() *Incremental {
	return &Incremental{funcs: make(map[string]*list.Element), probation: list.New(), protected: list.New()}
}

// Analyze runs the analysis pipeline over a compiled program, reusing
// cached per-function results where the cache key matches. The
// diagnostics are byte-identical to a from-scratch Analyze of the same
// program (fuzz-checked in incremental_test.go).
func (inc *Incremental) Analyze(prog *minicuda.Program) Result {
	return analyzeProgram(prog, inc, nil)
}

// lookup returns the entries the keyed functions have, and protects them.
func (inc *Incremental) lookup(keys map[*minicuda.Function]string) map[*minicuda.Function]*cachedFn {
	hits := make(map[*minicuda.Function]*cachedFn, len(keys))
	inc.mu.Lock()
	defer inc.mu.Unlock()
	for fn, key := range keys {
		el := inc.funcs[key]
		if el == nil {
			continue
		}
		s := el.Value.(*slot)
		hits[fn] = s.fn
		if s.protected {
			inc.protected.MoveToFront(el)
			continue
		}
		inc.probation.Remove(el)
		s.protected = true
		inc.funcs[key] = inc.protected.PushFront(s)
		if inc.protected.Len() > protectedFns { // demote the oldest
			d := inc.protected.Remove(inc.protected.Back()).(*slot)
			d.protected = false
			inc.funcs[d.fn.key] = inc.probation.PushFront(d)
		}
	}
	return hits
}

// insert stores freshly analyzed functions on probation, keeping an entry
// a concurrent run stored first, and evicts down to the bound.
func (inc *Incremental) insert(fresh []*cachedFn) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	for _, e := range fresh {
		if inc.funcs[e.key] == nil {
			inc.funcs[e.key] = inc.probation.PushFront(&slot{fn: e})
		}
	}
	for len(inc.funcs) > MaxCachedFns {
		delete(inc.funcs, inc.probation.Remove(inc.probation.Back()).(*slot).fn.key)
	}
}

// newCachedFn freezes one function's result for storing.
func newCachedFn(key string, line int, sum *fnSummary, diags []Diagnostic) *cachedFn {
	e := &cachedFn{key: key, line: line, sum: *sum, diags: slices.Clip(diags)}
	e.sum.effects = slices.Clip(e.sum.effects)
	e.sum.barriers = slices.Clip(e.sum.barriers)
	return e
}

// summaryAt and diagsAt return the entry's results for the function now
// starting at line: stored ones, or copies with the positions moved.
func (e *cachedFn) summaryAt(line int) fnSummary {
	sum := e.sum
	if delta := line - e.line; delta != 0 {
		sum.effects = slices.Clone(e.sum.effects)
		for i := range sum.effects {
			sum.effects[i].tok.Line += delta
		}
	}
	return sum
}

func (e *cachedFn) diagsAt(line int) []Diagnostic {
	delta := line - e.line
	if delta == 0 {
		return e.diags
	}
	diags := make([]Diagnostic, len(e.diags))
	for i, d := range e.diags {
		diags[i] = d.moved(delta)
	}
	return diags
}

// computeKeys derives the cache key of every cacheable function. A
// function on a call cycle, or calling into one, gets none: its summary
// is an order-dependent fallback.
func computeKeys(prog *minicuda.Program, calls map[*minicuda.Function][]*minicuda.Function) map[*minicuda.Function]string {
	prelude := prog.PreludeHash()
	keys := make(map[*minicuda.Function]string, len(prog.Funcs))
	visited := make(map[*minicuda.Function]bool, len(prog.Funcs))
	var visit func(fn *minicuda.Function)
	visit = func(fn *minicuda.Function) {
		if visited[fn] {
			return
		}
		visited[fn] = true
		for _, c := range calls[fn] {
			visit(c)
			if _, ok := keys[c]; !ok {
				return // cycle member, or depends on one
			}
		}
		h := sha256.New()
		io.WriteString(h, prelude)
		io.WriteString(h, RulesetVersion)
		io.WriteString(h, fn.StructuralHash())
		for _, c := range calls[fn] {
			io.WriteString(h, keys[c])
			io.WriteString(h, strconv.Itoa(c.Tok().Line-fn.Tok().Line)+";")
		}
		keys[fn] = hex.EncodeToString(h.Sum(nil))
	}
	for _, fn := range prog.Funcs {
		visit(fn)
	}
	return keys
}
