package kernelcheck

import (
	"fmt"

	"webgpu/internal/minicuda"
)

// checkRaces pairs the recorded shared-memory accesses within each
// barrier interval and flags write-write and write-read pairs that are
// neither provably the same thread nor provably disjoint.
//
// The model: within one barrier interval, any two distinct threads'
// accesses may interleave. Two accesses with flattened element indexes
// p(t) and q(t') collide when p(t) = q(t') for some pair of distinct
// threads t ≠ t'. With both indexes affine and sharing their
// thread-term structure, the difference d = p - q is a constant, and
// the collision equation has a distinct-thread solution iff the thread
// coefficients divide d (d = 0 with no thread terms at all means every
// thread hits the same cell). Disjointness falls out of interval
// bounds: when one access's maximum index is provably below the other's
// minimum, they cannot collide — this proves the tree-reduction pattern
// race-free (writers stay below s, readers start at s).
//
// Soundness caveats (see DESIGN.md): two accesses with *identical*
// affine indexes containing a thread term are treated as same-thread
// (s[ty*W+tx] twice is assumed injective in (tx, ty)), and equality
// pins compare by signature (a threadIdx.x==0 pin ignores a possible
// .y extent).
func (a *analyzer) checkRaces() {
	type gkey struct {
		sym      *minicuda.Symbol
		interval int
	}
	groups := make(map[gkey][]int)
	var order []gkey
	for i, ac := range a.accesses {
		if ac.space != minicuda.SpaceShared {
			continue
		}
		k := gkey{ac.sym, ac.interval}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	reported := make(map[string]bool)
	for _, k := range order {
		idxs := groups[k]
		for ii := 0; ii < len(idxs); ii++ {
			for jj := ii + 1; jj < len(idxs); jj++ {
				a.checkPair(idxs[ii], idxs[jj], reported)
			}
		}
	}
}

func (a *analyzer) checkPair(xi, yi int, reported map[string]bool) {
	x, y := a.accesses[xi], a.accesses[yi]
	if !x.write && !y.write {
		return // read-read never races
	}
	if x.atomic && y.atomic {
		return // atomics serialize against each other
	}
	if x.wrapped && y.wrapped {
		// Both copies model the next iteration; their original pairing
		// (in the original intervals) was already checked.
		return
	}
	// A wrap copy exists only while its loop iterates; it cannot race
	// with accesses after the loop (the back-edge was not taken then).
	if x.wrapped && (yi < x.wrapLo || yi >= x.wrapHi) {
		return
	}
	if y.wrapped && (xi < y.wrapLo || xi >= y.wrapHi) {
		return
	}
	if x.pos.Line == y.pos.Line && x.pos.Col == y.pos.Col && x.write == y.write &&
		x.csLine == y.csLine && x.csCol == y.csCol {
		return // the same textual access paired with its own wrap copy
	}
	if sameThread(x, y) {
		return
	}
	if a.disjoint(x, y) {
		return
	}

	key := fmt.Sprintf("%s|%s|%v%v", x.pos.Pos(), y.pos.Pos(), x.write, y.write)
	if reported[key] {
		return
	}
	reported[key] = true

	kind := "write and write"
	switch {
	case x.write && !y.write:
		kind = "write and read"
	case !x.write && y.write:
		kind = "read and write"
	}

	provable := false
	d := affSub(x.idx, y.idx)
	if d != nil && d.isConst() && !x.divRead && !y.divRead && x.pins == "" && y.pins == "" && !x.guarded && !y.guarded {
		provable = true
	}

	name := x.sym.Name
	if provable {
		// A race where either side flowed through a device-function call
		// gets its own rule ID: the fix usually lives at the call sites,
		// not at the access text.
		rule := RuleRace
		if x.via != "" || y.via != "" {
			rule = RuleRaceCall
		}
		a.diag(rule, SevError, y.pos,
			fmt.Sprintf("shared-memory race on %s: %s of %s %s and %s %s in the same barrier interval; distinct threads touch the same element",
				name, kind, x.expr, citePos(x.pos), y.expr, citePos(y.pos)),
			"separate the conflicting accesses with __syncthreads()")
	} else {
		a.diag(RuleRaceMaybe, SevWarn, y.pos,
			fmt.Sprintf("possible shared-memory race on %s: %s of %s %s and %s %s in the same barrier interval",
				name, kind, x.expr, citePos(x.pos), y.expr, citePos(y.pos)),
			"separate the conflicting accesses with __syncthreads(), or show the threads cannot overlap")
	}
}

// sameThread reports whether two accesses are provably performed by the
// same thread on the same element.
func sameThread(x, y access) bool {
	if x.pins != y.pins {
		return false
	}
	d := affSub(x.idx, y.idx)
	if d == nil || !d.isConst() || d.c != 0 {
		return false
	}
	// Identical indexes. With a thread term, assume injectivity: the
	// same thread computed the same element (documented caveat). With
	// equality pins, a single pinned thread performed both. Without
	// either, every thread hits the same element — not same-thread.
	return x.idx.hasThreadTerms() || x.pins != ""
}

// disjoint reports whether two accesses provably touch different
// elements for every pair of distinct threads.
func (a *analyzer) disjoint(x, y access) bool {
	d := affSub(x.idx, y.idx)
	if d != nil && d.isConst() && d.c != 0 {
		// Same thread-term structure offset by a constant: a collision
		// needs the thread coefficients to divide the offset.
		g := int64(0)
		for _, tc := range x.idx.terms {
			if tc.t.td != tdNone && tc.t.u == "" {
				g = gcd64(g, tc.k)
			}
		}
		if g == 0 {
			return true // no pure thread terms: cells differ for all threads
		}
		if d.c%g != 0 {
			return true
		}
	}
	// Interval separation: x entirely below y or y entirely below x.
	// Besides the recorded (refinement-derived) bounds, each index yields
	// bounds of its own by dropping nonnegative thread terms — e.g.
	// tx + stride has the uniform lower bound stride.
	xlos := [2]*affine{x.lo, a.idxLoBound(x.idx)}
	xhis := [2]*affine{x.hi, a.idxHiBound(x.idx)}
	ylos := [2]*affine{y.lo, a.idxLoBound(y.idx)}
	yhis := [2]*affine{y.hi, a.idxHiBound(y.idx)}
	for _, xh := range xhis {
		for _, yl := range ylos {
			if a.separated(xh, yl) {
				return true
			}
		}
	}
	for _, yh := range yhis {
		for _, xl := range xlos {
			if a.separated(yh, xl) {
				return true
			}
		}
	}
	return false
}

// separated reports whether lo > hi provably (one access range ends
// before the other begins).
func (a *analyzer) separated(hi, lo *affine) bool {
	if hi == nil || lo == nil {
		return false
	}
	s, ok := cmpAff(lo, hi, a.nonneg)
	return ok && s > 0
}

// idxLoBound derives a uniform lower bound from an affine index by
// dropping thread terms with positive coefficients (each is ≥ 0).
// Uniform terms are kept exactly. nil when no bound can be derived.
func (a *analyzer) idxLoBound(idx *affine) *affine {
	return a.idxBound(idx, true)
}

// idxHiBound is the mirror: thread terms with negative coefficients
// contribute at most 0; a positive thread coefficient is unbounded.
func (a *analyzer) idxHiBound(idx *affine) *affine {
	return a.idxBound(idx, false)
}

func (a *analyzer) idxBound(idx *affine, lower bool) *affine {
	if idx == nil {
		return nil
	}
	out := affConst(idx.c)
	for _, tc := range idx.terms {
		t, k := tc.t, tc.k
		if t.td == tdNone {
			out.addTerm(t, k)
			continue
		}
		droppable := (lower && k > 0) || (!lower && k < 0)
		if !droppable {
			return nil
		}
		// Dropping needs the whole product nonnegative: thread ids are,
		// and any uniform factor must be known nonnegative too.
		if t.u != "" && !a.nonneg(t.u) {
			return nil
		}
	}
	return out
}
