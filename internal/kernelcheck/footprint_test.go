package kernelcheck_test

import (
	"runtime"
	"strings"
	"testing"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
)

// TestEntryFootprint measures what an engine entry of a lab function
// costs in heap, the figure MaxCachedFns is sized by: the lab references,
// each indented by 1..rounds columns so every function is new, fill an
// engine, and the live heap it adds is split over its entries.
func TestEntryFootprint(t *testing.T) {
	const rounds = 24
	var progs []*minicuda.Program
	for r := 1; r <= rounds; r++ {
		pad := strings.Repeat(" ", r)
		for _, l := range labs.All() {
			prog, err := minicuda.Compile(pad+strings.ReplaceAll(l.Reference, "\n", "\n"+pad), l.Dialect)
			if err != nil {
				t.Fatalf("%s: %v", l.ID, err)
			}
			progs = append(progs, prog)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	inc := kernelcheck.NewIncremental()
	for _, prog := range progs {
		inc.Analyze(prog)
	}
	after := heap()
	n := kernelcheck.Entries(inc)
	if n == 0 || n > kernelcheck.MaxCachedFns {
		t.Fatalf("engine holds %d entries", n)
	}
	per := float64(after-before) / float64(n)
	t.Logf("%d entries, %.0f bytes each, %.1f MiB at MaxCachedFns", n, per, per*kernelcheck.MaxCachedFns/(1<<20))
	if per > 1<<10 {
		t.Errorf("an entry takes %.0f bytes, over the 1 KiB MaxCachedFns is sized by", per)
	}
	runtime.KeepAlive(progs)
	runtime.KeepAlive(inc)
}
