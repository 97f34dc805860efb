package main

import (
	"fmt"
	"math/rand"
	"strings"

	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
)

// Every input the platform sees is made here from the seed; the program
// under test never learns which workload it is serving.

// jobOp is one Compile or Submit click.
type jobOp struct {
	lab       *labs.Lab
	path      string // API path of the click
	src       string // the source the click carries
	body      []byte // JSON request body: {"source": src}
	wantIdent string // non-empty: the compile must fail naming this identifier
}

// hppLabs are the 8 labs of the paper's MOOC, in catalog order.
func hppLabs() []*labs.Lab { return labs.ForCourse(labs.CourseHPP) }

// studentRand derives one student's private random stream from the run seed.
func studentRand(seed int64, student int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(student)))
}

// deck deals 0..n-1 in seeded order and reshuffles when it runs out. Every
// n draws hold each value once, so the seed decides the order of a
// window's requests but not their mix: the labs differ tenfold in cost,
// and a free draw would make throughput depend on the seed's luck.
func deck(rng *rand.Rand, n int) func() int {
	var cards []int
	return func() int {
		if len(cards) == 0 {
			cards = rng.Perm(n)
		}
		c := cards[0]
		cards = cards[1:]
		return c
	}
}

// warmMixGen yields submits of the instructor reference of a lab dealt by
// seed from the HPP labs. The sources repeat, so after set-up has
// submitted each once the compiler and analyzer are never entered.
func warmMixGen(seed int64, student int) func() (jobOp, bool) {
	ls := hppLabs()
	deal := deck(studentRand(seed, student), len(ls))
	ops := make([]jobOp, len(ls))
	for i, l := range ls {
		ops[i] = jobOp{lab: l, path: "/api/v1/labs/" + l.ID + "/submit", src: l.Reference, body: sourceBody(l.Reference)}
	}
	return func() (jobOp, bool) { return ops[deal()], true }
}

// One in brokenEvery of compile-unique's sources of each lab carries an
// undeclared identifier.
const brokenEvery = 5

// compileUniqueGen yields compiles of never-seen sources: the reference of
// a seeded HPP lab under a "// student NNNNNN rev R" header. The program
// cache keys on the raw text, so every one is a guaranteed miss.
func compileUniqueGen(seed int64, student int) func() (jobOp, bool) {
	rng := studentRand(seed, student)
	ls := hppLabs()
	// Distinct per student by construction, whatever the draw.
	id := rng.Intn(500_000)*2 + student%2
	deal := deck(rng, len(ls)*brokenEvery)
	rev := 0
	return func() (jobOp, bool) {
		rev++
		card := deal()
		l := ls[card%len(ls)]
		op := jobOp{lab: l, path: "/api/v1/labs/" + l.ID + "/compile", src: variant(l, id, rev)}
		if card/len(ls) == 0 {
			op.wantIdent = fmt.Sprintf("missing_%06d_%d", id, rev)
			op.src += brokenKernel(l, op.wantIdent)
		}
		op.body = sourceBody(op.src)
		return op, true
	}
}

// variant is the lab's reference under a header that makes its text unique.
func variant(l *labs.Lab, student, rev int) string {
	return fmt.Sprintf("// student %06d rev %d\n%s", student, rev, l.Reference)
}

// brokenKernel is an extra kernel whose body reads an undeclared identifier.
func brokenKernel(l *labs.Lab, ident string) string {
	sig := "__global__ void bench_probe(int *p)"
	if l.Dialect == minicuda.DialectOpenCL {
		sig = "__kernel void bench_probe(__global int *p)"
	}
	return fmt.Sprintf("%s { p[0] = %s; }\n", sig, ident)
}

// listLength sizes the finite request lists of compile-unique and
// restart-warm, whose every source may be used once only: they must
// outlast the timed window. The reference host serves about 340 compiles
// a second; the window ends early, and says so, if a faster platform
// exhausts the list.
func listLength(seconds float64) int { return int(450*seconds) + students }

// restartSources is restart-warm's working set: unique, all compiling.
func restartSources(seed int64, n int) []jobOp {
	rng := rand.New(rand.NewSource(seed))
	ls := hppLabs()
	id := rng.Intn(1_000_000)
	deal := deck(rng, len(ls))
	ops := make([]jobOp, n)
	for i := range ops {
		l := ls[deal()]
		src := variant(l, id, i+1)
		ops[i] = jobOp{lab: l, path: "/api/v1/labs/" + l.ID + "/compile", src: src, body: sourceBody(src)}
	}
	return ops
}

// sliceGen hands student k every stride-th op starting at k.
func sliceGen(ops []jobOp, student, stride int) func() (jobOp, bool) {
	i := student
	return func() (jobOp, bool) {
		if i >= len(ops) {
			return jobOp{}, false
		}
		op := ops[i]
		i += stride
		return op, true
	}
}

// ---- interactive-mix ----------------------------------------------------------

// interactiveLab is the lab the interactive student edits: its reference
// has three kernels, so a one-kernel edit leaves two to reuse.
const interactiveLab = "reduction-scan"

// draftAnchor is the literal the generator rewrites. It sits in the last
// kernel, so the functions before it keep their token positions (the
// structural hash covers positions) and their cached analyses.
const draftAnchor = "if (section > 0)"

// draftGen yields successive edits of the reduction-scan reference, each
// rewriting one literal of the last kernel to a value not used before.
func draftGen(seed int64) func() string {
	ref := labs.ByID(interactiveLab).Reference
	if strings.Count(ref, draftAnchor) != 1 {
		panic("bench: " + interactiveLab + " reference no longer contains " + draftAnchor)
	}
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(100_000)
	return func() string {
		n += 1 + rng.Intn(9)
		return strings.Replace(ref, draftAnchor, fmt.Sprintf("if (section > %d)", n), 1)
	}
}

// fillOp is one request of interactive-mix's set-up, which fills the
// database the timed reads scan: fillLab's reference, submitted or
// attempted by one of the fill users.
type fillOp struct {
	user    int
	attempt bool // POST attempt (else submit)
}

const (
	fillUsers    = 50
	fillSubmits  = 1500
	fillAttempts = 500
	fillLab      = "device-query"
)

// fillPlan spreads fillSubmits submissions and fillAttempts attempts of
// the cheapest lab over fillUsers users by seeded draw, scaled by scale.
func fillPlan(seed int64, scale float64) []fillOp {
	rng := rand.New(rand.NewSource(seed))
	submits, attempts := scaled(fillSubmits, scale), scaled(fillAttempts, scale)
	ops := make([]fillOp, 0, submits+attempts)
	for i := 0; i < submits+attempts; i++ {
		ops = append(ops, fillOp{user: rng.Intn(fillUsers), attempt: i >= submits})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// studentHistory is what set-up makes the interactive student do on the
// lab they will read, so the timed reads have known answers.
type studentHistory struct {
	saves    int
	attempts int
}

func studentPlan(seed int64) studentHistory {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return studentHistory{saves: 8 + rng.Intn(9), attempts: 3 + rng.Intn(4)}
}

// revisions is the history length the student ends set-up with: every
// save, attempt and submit that carries a source stores one revision.
func (h studentHistory) revisions() int { return h.saves + h.attempts + 1 }

func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m > 1 {
		return m
	}
	return 1
}
