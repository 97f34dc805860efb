//go:build go1.24

package kernelcheck

import (
	"runtime"
	"testing"
	"weak"
)

// TestIncrementalHoldsNoProgram: a program the engine analyzed is
// collected once its caller drops it — a stored entry points at no AST.
func TestIncrementalHoldsNoProgram(t *testing.T) {
	inc := NewIncremental()
	prog := compileT(t, incUnitSrc)
	if res := inc.Analyze(prog); res.Analyzed != 3 {
		t.Fatalf("analyzed %d functions, want 3", res.Analyzed)
	}
	wp := weak.Make(prog)
	prog = nil
	for i := 0; i < 5 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("the analyzed program is still reachable after the caller dropped it")
	}
	if len(inc.funcs) != 3 {
		t.Fatalf("engine holds %d entries, want 3", len(inc.funcs))
	}
	runtime.KeepAlive(inc)
}
