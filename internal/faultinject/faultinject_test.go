package faultinject

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
	"time"

	"webgpu/internal/markdown"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if err := r.Fire(PointQueuePublish); err != nil {
		t.Fatalf("nil registry fired: %v", err)
	}
	r.Enable(PointQueuePublish, Fault{})
	r.Disable(PointQueuePublish)
	r.DisableAll()
	if r.Fired(PointQueuePublish) != 0 || r.Evaluations(PointQueuePublish) != 0 {
		t.Error("nil registry reported activity")
	}
	if got := r.String(); got != "faultinject: disabled" {
		t.Errorf("String() = %q", got)
	}
}

func TestUnarmedPointNeverFires(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if err := r.Fire("not.armed"); err != nil {
			t.Fatalf("unarmed point fired: %v", err)
		}
	}
}

func TestAlwaysFire(t *testing.T) {
	r := New(1)
	r.Enable("p", Fault{})
	for i := 0; i < 5; i++ {
		if err := r.Fire("p"); !errors.Is(err, ErrInjected) {
			t.Fatalf("fire %d = %v, want ErrInjected", i, err)
		}
	}
	if r.Fired("p") != 5 || r.Evaluations("p") != 5 {
		t.Errorf("fired=%d evals=%d", r.Fired("p"), r.Evaluations("p"))
	}
}

func TestOnce(t *testing.T) {
	r := New(1)
	r.Enable("p", Fault{Once: true})
	if err := r.Fire("p"); err == nil {
		t.Fatal("once point did not fire")
	}
	for i := 0; i < 10; i++ {
		if err := r.Fire("p"); err != nil {
			t.Fatalf("once point fired twice: %v", err)
		}
	}
	if r.Fired("p") != 1 {
		t.Errorf("fired = %d", r.Fired("p"))
	}
}

func TestCountBoundsFires(t *testing.T) {
	r := New(1)
	r.Enable("p", Fault{Count: 3})
	fired := 0
	for i := 0; i < 10; i++ {
		if r.Fire("p") != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Errorf("fired %d times, want 3", fired)
	}
}

func TestAfterSkipsEarlyEvaluations(t *testing.T) {
	r := New(1)
	r.Enable("p", Fault{After: 2, Once: true})
	for i := 0; i < 2; i++ {
		if err := r.Fire("p"); err != nil {
			t.Fatalf("fired during the After window: %v", err)
		}
	}
	if err := r.Fire("p"); err == nil {
		t.Fatal("did not fire on evaluation 3")
	}
}

func TestCustomError(t *testing.T) {
	boom := errors.New("boom")
	r := New(1)
	r.Enable("p", Fault{Err: boom, Once: true})
	if err := r.Fire("p"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestLatencyOnlyFault(t *testing.T) {
	r := New(1)
	r.Enable("p", Fault{Latency: 5 * time.Millisecond, Once: true})
	start := time.Now()
	if err := r.Fire("p"); err != nil {
		t.Fatalf("latency-only fault returned error: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("slept %v, want >= 5ms", elapsed)
	}
	if r.Fired("p") != 1 {
		t.Errorf("fired = %d", r.Fired("p"))
	}
}

func TestProbabilityIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		r := New(seed)
		r.Enable("p", Fault{Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = r.Fire("p") != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at evaluation %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical firing sequences")
	}
	// ~50% of 64 evaluations should fire; allow a wide statistical band.
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired < 16 || fired > 48 {
		t.Errorf("prob 0.5 fired %d/64 times", fired)
	}
}

func TestReEnableResetsCounters(t *testing.T) {
	r := New(1)
	r.Enable("p", Fault{Once: true})
	_ = r.Fire("p")
	r.Enable("p", Fault{Once: true})
	if err := r.Fire("p"); err == nil {
		t.Fatal("re-armed point did not fire")
	}
}

func TestDisableAndDisableAll(t *testing.T) {
	r := New(1)
	r.Enable("a", Fault{})
	r.Enable("b", Fault{})
	r.Disable("a")
	if err := r.Fire("a"); err != nil {
		t.Fatalf("disabled point fired: %v", err)
	}
	if err := r.Fire("b"); err == nil {
		t.Fatal("point b should still fire")
	}
	r.DisableAll()
	if err := r.Fire("b"); err != nil {
		t.Fatalf("point fired after DisableAll: %v", err)
	}
}

func TestStringSummary(t *testing.T) {
	r := New(99)
	r.Enable("b.point", Fault{})
	r.Enable("a.point", Fault{})
	_ = r.Fire("a.point")
	s := r.String()
	if !strings.Contains(s, "seed=99") || !strings.Contains(s, "a.point=1/1") ||
		!strings.Contains(s, "b.point=0/0") {
		t.Errorf("String() = %q", s)
	}
	if strings.Index(s, "a.point") > strings.Index(s, "b.point") {
		t.Errorf("points not sorted: %q", s)
	}
}

func TestConcurrentFireIsSafe(t *testing.T) {
	r := New(7)
	r.Enable("p", Fault{Prob: 0.5})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				_ = r.Fire("p")
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if evals := r.Evaluations("p"); evals != 4000 {
		t.Errorf("evaluations = %d, want 4000", evals)
	}
	if fired := r.Fired("p"); fired < 1000 || fired > 3000 {
		t.Errorf("fired = %d, want ~2000", fired)
	}
}

func ExampleRegistry_Fire() {
	r := New(1)
	r.Enable(PointQueuePublish, Fault{Once: true})
	fmt.Println(r.Fire(PointQueuePublish) != nil)
	fmt.Println(r.Fire(PointQueuePublish) != nil)
	// Output:
	// true
	// false
}

var update = flag.Bool("update", false, "rewrite DESIGN.md's fault-point catalog from Catalog")

// TestCatalogDocumented keeps DESIGN.md's fault-point table equal to
// Catalog, and Catalog to the Point constants this package declares.
func TestCatalogDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "faultinject.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for name, obj := range f.Scope.Objects {
		if obj.Kind == ast.Con && strings.HasPrefix(name, "Point") {
			declared[obj.Decl.(*ast.ValueSpec).Values[0].(*ast.BasicLit).Value] = true
		}
	}
	var b strings.Builder
	b.WriteString("| Point | Layer | Simulates |\n|---|---|---|\n")
	for _, p := range Catalog {
		if !declared[strconv.Quote(p.Name)] {
			t.Errorf("catalog point %q is not a Point constant", p.Name)
		}
		delete(declared, strconv.Quote(p.Name))
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", p.Name, p.Layer, p.Simulates)
	}
	if len(declared) != 0 {
		t.Errorf("Point constants missing from Catalog: %v", declared)
	}
	if err := markdown.SyncBlock("../../DESIGN.md", "gen:faults", b.String(), *update); err != nil {
		t.Error(err)
	}
}
