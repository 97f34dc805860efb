package kernelcheck_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
)

func render(diags []kernelcheck.Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// corpusSource is one program of the shared-analysis corpus.
type corpusSource struct {
	name    string
	src     string
	dialect minicuda.Dialect
}

// sharedCorpus is every kernel source the repository ships: the
// analyzer's golden corpus, the lab references and examples/kernels,
// with exact duplicates dropped.
func sharedCorpus(t testing.TB) []corpusSource {
	t.Helper()
	var out []corpusSource
	seen := map[string]bool{}
	add := func(name, src string, dialect minicuda.Dialect) {
		if k := dialect.String() + "\x00" + src; !seen[k] {
			seen[k] = true
			out = append(out, corpusSource{name, src, dialect})
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.cu"))
	if err != nil {
		t.Fatal(err)
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "kernels", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(files, examples...) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dialect := minicuda.DialectCUDA
		if strings.HasSuffix(f, ".cl") || strings.Contains(string(data), "__kernel") {
			dialect = minicuda.DialectOpenCL
		}
		add(f, string(data), dialect)
	}
	for _, l := range labs.All() {
		add(l.ID, l.Reference, l.Dialect)
	}
	if len(out) < 60 {
		t.Fatalf("shared corpus has %d sources", len(out))
	}
	return out
}

// variantItem is one source of the property run: a corpus program under
// a header, or indented.
type variantItem struct {
	family  int
	kind    string // "base", "line" (one-line header), "shifted" (two lines) or "indented"
	prog    *minicuda.Program
	want    string   // rendered diagnostics of a fresh Analyze
	keys    []string // what an engine stores its functions under
	foreign int      // of those, keys another family's items have too
}

// TestSharedEngineMatchesAnalyzeAcrossSources is the shared engine's
// byte-identity property: one engine analyzes every corpus program as
// is, under three one-line headers and under a two-line header (the same
// functions moved down, so all but the first of these splice every
// function, moved) and indented by one column (columns nothing else has,
// so it must miss), from four goroutines in a seeded shuffled order. Each
// result renders exactly as a fresh Analyze. A second round over the same
// items, dealt across the goroutines without regard to family, must
// splice every cacheable function.
func TestSharedEngineMatchesAnalyzeAcrossSources(t *testing.T) {
	const workers = 4
	variants := []struct {
		kind string
		of   func(src string) string
	}{
		{"base", func(src string) string { return src }},
		{"line", func(src string) string { return "// revision 1\n" + src }},
		{"line", func(src string) string { return "// revision 2\n" + src }},
		{"line", func(src string) string { return "// revision 3\n" + src }},
		{"shifted", func(src string) string { return "// revision 4\n//\n" + src }},
		{"indented", func(src string) string { return " " + strings.ReplaceAll(src, "\n", "\n ") }},
	}
	var items []*variantItem
	for fam, cs := range sharedCorpus(t) {
		for _, h := range variants {
			prog, err := minicuda.Compile(h.of(cs.src), cs.dialect)
			if err != nil {
				t.Fatalf("%s (%s header): %v", cs.name, h.kind, err)
			}
			items = append(items, &variantItem{
				family: fam, kind: h.kind, prog: prog,
				want: render(kernelcheck.Analyze(prog)), keys: kernelcheck.CacheKeys(prog),
			})
		}
	}
	// Two corpus programs may share a function outright (the vector-add
	// reference and ok_vecadd.cu): such a key can hit across families,
	// whatever the variant.
	families := map[string]map[int]bool{}
	for _, it := range items {
		for _, k := range it.keys {
			if families[k] == nil {
				families[k] = map[int]bool{}
			}
			families[k][it.family] = true
		}
	}
	unique := 0
	for _, it := range items {
		for _, k := range it.keys {
			if len(families[k]) > 1 {
				it.foreign++
			}
		}
		if it.kind == "indented" && it.foreign == 0 {
			unique++
		}
	}
	if unique < len(items)/len(variants)*9/10 {
		t.Fatalf("only %d of %d indented variants have functions no other family has", unique, len(items)/len(variants))
	}
	rng := rand.New(rand.NewSource(0x5eed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	inc := kernelcheck.NewIncremental()
	run := func(deal func(it *variantItem) int, check func(it *variantItem, res kernelcheck.Result, seenMoved bool)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				moved := map[int]bool{} // families with a variant other than "indented" this goroutine has run
				for _, it := range items {
					if deal(it) != w {
						continue
					}
					res := inc.Analyze(it.prog)
					if got := render(res.Diagnostics); got != it.want {
						t.Errorf("family %d (%s): shared engine diverges from Analyze:\n%s\nwant:\n%s", it.family, it.kind, got, it.want)
					}
					if res.Analyzed+res.Reused != res.Total || res.Total != len(it.prog.Funcs) {
						t.Errorf("family %d (%s): work split %+v does not add up", it.family, it.kind, res)
					}
					check(it, res, moved[it.family])
					if it.kind != "indented" {
						moved[it.family] = true
					}
				}
			}(w)
		}
		wg.Wait()
	}

	// Round 1: a family stays on one goroutine, so the order of its
	// variants is the shuffled order.
	run(func(it *variantItem) int { return it.family % workers }, func(it *variantItem, res kernelcheck.Result, seenMoved bool) {
		switch {
		case it.kind == "indented" && res.Reused > it.foreign:
			t.Errorf("family %d: indented variant reused %d functions, only %d of them shared with another family", it.family, res.Reused, it.foreign)
		case it.kind != "indented" && seenMoved && (len(it.keys) == 0 || res.Reused != len(it.keys)):
			t.Errorf("family %d (%s): moved copy reused %d of %d cacheable functions", it.family, it.kind, res.Reused, len(it.keys))
		}
	})
	// Round 2: every item again, dealt round-robin.
	next := 0
	deal := map[*variantItem]int{}
	for _, it := range items {
		deal[it] = next % workers
		next++
	}
	run(func(it *variantItem) int { return deal[it] }, func(it *variantItem, res kernelcheck.Result, _ bool) {
		if res.Reused != len(it.keys) {
			t.Errorf("family %d (%s): warm engine reused %d of %d cacheable functions", it.family, it.kind, res.Reused, len(it.keys))
		}
	})
}

// FuzzSharedAnalysis: a program that compiles, analyzed through an engine
// already primed with every lab reference, renders exactly as a fresh
// Analyze; its second run, and a run of it one line further down, splice
// every cacheable function and still render as Analyze.
func FuzzSharedAnalysis(f *testing.F) {
	inc := kernelcheck.NewIncremental()
	for _, l := range labs.All() {
		prog, err := minicuda.Compile(l.Reference, l.Dialect)
		if err != nil {
			f.Fatalf("%s: %v", l.ID, err)
		}
		inc.Analyze(prog)
		f.Add(l.Reference, uint8(l.Dialect))
	}
	f.Fuzz(func(t *testing.T, src string, dialect uint8) {
		prog, err := minicuda.Compile(src, minicuda.Dialect(dialect%3))
		if err != nil {
			return
		}
		want := render(kernelcheck.Analyze(prog))
		first := inc.Analyze(prog)
		if got := render(first.Diagnostics); got != want {
			t.Fatalf("shared engine diverges from Analyze:\n%s\nwant:\n%s", got, want)
		}
		n := len(kernelcheck.CacheKeys(prog))
		if n > kernelcheck.MaxCachedFns {
			return // more functions than an engine holds
		}
		second := inc.Analyze(prog)
		if got := render(second.Diagnostics); got != want {
			t.Fatalf("second run diverges from Analyze:\n%s\nwant:\n%s", got, want)
		}
		if second.Reused != n {
			t.Fatalf("second run reused %d of %d cacheable functions", second.Reused, n)
		}
		down, err := minicuda.Compile("\n"+src, minicuda.Dialect(dialect%3))
		if err != nil {
			t.Fatalf("one line down no longer compiles: %v", err)
		}
		moved := inc.Analyze(down)
		if got, want := render(moved.Diagnostics), render(kernelcheck.Analyze(down)); got != want {
			t.Fatalf("run one line down diverges from Analyze:\n%s\nwant:\n%s", got, want)
		}
		if moved.Reused != n {
			t.Fatalf("run one line down reused %d of %d cacheable functions", moved.Reused, n)
		}
	})
}
