//kernelcheck:hotpath
package kernelcheck

import (
	"sort"
	"strconv"
	"strings"
)

// The analyzer models integer index expressions as affine sums
//
//	c + Σ coeff_i · term_i
//
// where a term is either a pure thread-index dimension (threadIdx.x/y/z),
// an opaque uniform value (a kernel parameter, a loop variable, a
// blockIdx·blockDim product — anything the same for all threads of a
// block at a given program point), or a product of a thread dimension
// with an opaque uniform (e.g. threadIdx.x * N). Opaque names carry an
// SSA-style version suffix ("i@3") so two uses of a variable only
// compare equal when no assignment can separate them.

// tdim is the thread-index dimension of a term.
type tdim uint8

// Thread dimensions; tdNone marks a uniform term.
const (
	tdNone tdim = iota
	tdX
	tdY
	tdZ
)

func (d tdim) String() string {
	switch d {
	case tdX:
		return "threadIdx.x"
	case tdY:
		return "threadIdx.y"
	case tdZ:
		return "threadIdx.z"
	}
	return ""
}

// term is one linear term: an optional thread dimension times an
// optional uniform factor ("" = 1).
type term struct {
	td tdim
	u  string
}

// termCoeff is one term with its coefficient. Index expressions almost
// always have 1–3 terms, so affines keep them in a short slice sorted by
// term — far cheaper to clone and iterate than a map, and the analyzer
// clones affines on every arithmetic op.
type termCoeff struct {
	t term
	k int64
}

func termLess(a, b term) bool {
	if a.td != b.td {
		return a.td < b.td
	}
	return a.u < b.u
}

// affine is c + Σ coeff·term. A nil *affine means "not representable".
type affine struct {
	c     int64
	terms []termCoeff // sorted by term, zero coefficients removed
}

func affConst(c int64) *affine { return &affine{c: c} }

func affTerm(t term, coeff int64) *affine {
	if coeff == 0 {
		return affConst(0)
	}
	return &affine{terms: []termCoeff{{t, coeff}}}
}

func (a *affine) clone() *affine {
	if a == nil {
		return nil
	}
	b := &affine{c: a.c}
	if len(a.terms) > 0 {
		b.terms = make([]termCoeff, len(a.terms))
		copy(b.terms, a.terms)
	}
	return b
}

func (a *affine) isConst() bool { return a != nil && len(a.terms) == 0 }

func (a *affine) addTerm(t term, coeff int64) {
	if coeff == 0 {
		return
	}
	i := 0
	for i < len(a.terms) && termLess(a.terms[i].t, t) {
		i++
	}
	if i < len(a.terms) && a.terms[i].t == t {
		a.terms[i].k += coeff
		if a.terms[i].k == 0 {
			a.terms = append(a.terms[:i], a.terms[i+1:]...)
		}
		return
	}
	a.terms = append(a.terms, termCoeff{})
	copy(a.terms[i+1:], a.terms[i:])
	a.terms[i] = termCoeff{t, coeff}
}

func affAdd(a, b *affine) *affine {
	if a == nil || b == nil {
		return nil
	}
	r := a.clone()
	r.c += b.c
	for _, tc := range b.terms {
		r.addTerm(tc.t, tc.k)
	}
	return r
}

func affNeg(a *affine) *affine { return affScale(a, -1) }

func affSub(a, b *affine) *affine { return affAdd(a, affNeg(b)) }

func affScale(a *affine, k int64) *affine {
	if a == nil {
		return nil
	}
	if k == 0 {
		return affConst(0)
	}
	r := &affine{c: a.c * k}
	for _, tc := range a.terms {
		r.addTerm(tc.t, tc.k*k)
	}
	return r
}

// affMul multiplies two affine expressions, distributing term products.
// A product of two thread-dimension terms is not affine and yields nil.
func affMul(a, b *affine) *affine {
	if a == nil || b == nil {
		return nil
	}
	if a.isConst() {
		return affScale(b, a.c)
	}
	if b.isConst() {
		return affScale(a, b.c)
	}
	r := affConst(a.c * b.c)
	for _, tc := range a.terms {
		r.addTerm(tc.t, tc.k*b.c)
	}
	for _, tc := range b.terms {
		r.addTerm(tc.t, tc.k*a.c)
	}
	for _, ta := range a.terms {
		for _, tb := range b.terms {
			if ta.t.td != tdNone && tb.t.td != tdNone {
				return nil // quadratic in thread index
			}
			td := ta.t.td
			if td == tdNone {
				td = tb.t.td
			}
			r.addTerm(term{td: td, u: mulNames(ta.t.u, tb.t.u)}, ta.k*tb.k)
		}
	}
	return r
}

// mulNames combines two uniform factor names into a canonical product
// name: factors sorted and joined with '*'.
func mulNames(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	fs := append(strings.Split(a, "*"), strings.Split(b, "*")...)
	sort.Strings(fs)
	return strings.Join(fs, "*")
}

// affEqual reports structural equality.
func affEqual(a, b *affine) bool {
	if a == nil || b == nil {
		return false
	}
	d := affSub(a, b)
	return d.isConst() && d.c == 0
}

// hasThreadTerms reports whether any term involves a thread dimension.
func (a *affine) hasThreadTerms() bool {
	if a == nil {
		return false
	}
	for _, tc := range a.terms {
		if tc.t.td != tdNone {
			return true
		}
	}
	return false
}

// threadCoeff returns the total constant coefficient on dimension d and
// whether d also appears with a symbolic (uniform-product) coefficient.
func (a *affine) threadCoeff(d tdim) (coeff int64, symbolic bool) {
	if a == nil {
		return 0, false
	}
	for _, tc := range a.terms {
		if tc.t.td != d {
			continue
		}
		if tc.t.u == "" {
			coeff += tc.k
		} else {
			symbolic = true
		}
	}
	return coeff, symbolic
}

// gcd64 is the nonnegative gcd.
func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// cmpAff compares a-b against zero: returns (+1, true) when provably
// positive, (-1, true) when provably negative, (0, true) when provably
// zero, and (0, false) when unknown. nonneg reports whether a uniform
// term name is known to be ≥ 0 (builtin indices, guarded loop
// variables); thread-dimension terms are always ≥ 0.
func cmpAff(a, b *affine, nonneg func(string) bool) (int, bool) {
	d := affSub(a, b)
	if d == nil {
		return 0, false
	}
	if d.isConst() {
		switch {
		case d.c > 0:
			return 1, true
		case d.c < 0:
			return -1, true
		}
		return 0, true
	}
	allPos, allNeg := true, true
	for _, tc := range d.terms {
		known := tc.t.td != tdNone || (nonneg != nil && nonneg(tc.t.u))
		if !known {
			return 0, false
		}
		if tc.k < 0 {
			allPos = false
		}
		if tc.k > 0 {
			allNeg = false
		}
	}
	if allPos && d.c >= 0 {
		if d.c > 0 {
			return 1, true
		}
		// Σ (nonneg terms with positive coeffs) ≥ 0; strictness unknown.
		return 1, d.c > 0
	}
	if allNeg && d.c <= 0 {
		if d.c < 0 {
			return -1, true
		}
		return -1, d.c < 0
	}
	return 0, false
}

// geZero reports whether a ≥ 0 provably.
func geZero(a *affine, nonneg func(string) bool) bool {
	if a == nil {
		return false
	}
	if a.isConst() {
		return a.c >= 0
	}
	for _, tc := range a.terms {
		known := tc.t.td != tdNone || (nonneg != nil && nonneg(tc.t.u))
		if !known || tc.k < 0 {
			return false
		}
	}
	return a.c >= 0
}

// stripVersions removes the "@<digits>" SSA suffixes from a rendered
// term name (the hand-rolled equivalent of s/@\d+//g — String runs for
// every recorded access, so no regexp here).
func stripVersions(s string) string {
	i := strings.IndexByte(s, '@')
	if i < 0 {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for {
		j := i + 1
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == i+1 {
			// A bare '@' with no digits is not a version suffix.
			sb.WriteString(s[:i+1])
		} else {
			sb.WriteString(s[:i])
		}
		s = s[j:]
		i = strings.IndexByte(s, '@')
		if i < 0 {
			sb.WriteString(s)
			return sb.String()
		}
	}
}

// String renders the affine expression for diagnostics, with version
// suffixes stripped.
func (a *affine) String() string {
	if a == nil {
		return "?"
	}
	type tk struct {
		s string
		k int64
	}
	var parts []tk
	for _, tc := range a.terms {
		name := tc.t.u
		if tc.t.td != tdNone {
			if name == "" {
				name = tc.t.td.String()
			} else {
				name = tc.t.td.String() + "*" + name
			}
		}
		parts = append(parts, tk{stripVersions(name), tc.k})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].s < parts[j].s })
	var sb strings.Builder
	for _, p := range parts {
		if sb.Len() > 0 {
			if p.k >= 0 {
				sb.WriteString(" + ")
			} else {
				sb.WriteString(" - ")
				p.k = -p.k
			}
		} else if p.k < 0 {
			sb.WriteString("-")
			p.k = -p.k
		}
		if p.k != 1 {
			sb.WriteString(strconv.FormatInt(p.k, 10))
			sb.WriteString("*")
		}
		sb.WriteString(p.s)
	}
	if sb.Len() == 0 {
		return strconv.FormatInt(a.c, 10)
	}
	if a.c > 0 {
		sb.WriteString(" + ")
		sb.WriteString(strconv.FormatInt(a.c, 10))
	} else if a.c < 0 {
		sb.WriteString(" - ")
		sb.WriteString(strconv.FormatInt(-a.c, 10))
	}
	return sb.String()
}

// renameWrapped rewrites opaque factors rooted at a loop-assigned
// variable so a wrap-around copy of an access models the *next*
// iteration's value of that variable rather than this one's.
func (a *affine) renameWrapped(assigned map[string]bool) *affine {
	if a == nil || len(a.terms) == 0 {
		return a
	}
	r := &affine{c: a.c}
	for _, tc := range a.terms {
		t := tc.t
		if t.u != "" {
			fs := strings.Split(t.u, "*")
			changed := false
			for i, f := range fs {
				root := f
				if at := strings.IndexByte(f, '@'); at >= 0 {
					root = f[:at]
				}
				if assigned[root] {
					fs[i] = f + "'"
					changed = true
				}
			}
			if changed {
				sort.Strings(fs)
				t = term{td: t.td, u: strings.Join(fs, "*")}
			}
		}
		r.addTerm(t, tc.k)
	}
	return r
}
