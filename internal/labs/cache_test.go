package labs

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"webgpu/internal/progcache"
)

// compileOnceRuns numbers the runs of TestRunAllCompilesOnce in this
// process, so that go test -count=N hands each a source of its own.
var compileOnceRuns int

// TestRunAllCompilesOnce asserts, via the program-cache counters, that a
// full grading run over every dataset of a multi-dataset lab performs
// exactly one compile.
func TestRunAllCompilesOnce(t *testing.T) {
	l := ByID("vector-add")
	if l.NumDatasets < 2 {
		t.Fatalf("need a multi-dataset lab, got %d datasets", l.NumDatasets)
	}
	// A source unique to this run so that nothing earlier can have warmed it.
	compileOnceRuns++
	src := l.Reference + fmt.Sprintf("\n// compile-once probe (TestRunAllCompilesOnce run %d)\n", compileOnceRuns)
	before := progcache.Default.Stats()
	outs := RunAll(context.Background(), l, src, NewDeviceSet(1), 0)
	after := progcache.Default.Stats()

	if got := after.Compiles - before.Compiles; got != 1 {
		t.Errorf("RunAll over %d datasets ran %d compiles, want exactly 1", l.NumDatasets, got)
	}
	if got := after.Misses - before.Misses; got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	if got := after.Hits - before.Hits; got != 0 {
		t.Errorf("cache hits = %d, want 0 (the program is reused, not re-fetched)", got)
	}
	for i, o := range outs {
		if !o.Correct {
			t.Errorf("dataset %d: %s %s", i, o.RuntimeError, o.CheckMessage)
		}
		if o.DatasetID != i {
			t.Errorf("outs[%d].DatasetID = %d (order must be deterministic)", i, o.DatasetID)
		}
	}

	// A second identical submission is a pure cache hit.
	RunAll(context.Background(), l, src, NewDeviceSet(1), 0)
	final := progcache.Default.Stats()
	if got := final.Compiles - after.Compiles; got != 0 {
		t.Errorf("repeat submission recompiled %d times", got)
	}
	if got := final.Hits - after.Hits; got != 1 {
		t.Errorf("repeat submission hits = %d, want 1", got)
	}
}

// TestDatasetCachedPerProcess asserts instructor datasets are generated
// once and served from the per-lab cache afterwards.
func TestDatasetCachedPerProcess(t *testing.T) {
	l := ByID("vector-add")
	d1, err := l.Dataset(0)
	if err != nil {
		t.Fatal(err)
	}
	gens := l.DatasetGenerations()
	d2, err := l.Dataset(0)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("Dataset(0) returned different objects across calls")
	}
	if l.DatasetGenerations() != gens {
		t.Error("second Dataset(0) regenerated the data")
	}
	// Full grading runs must not regenerate anything once datasets exist.
	for i := 0; i < l.NumDatasets; i++ {
		if _, err := l.Dataset(i); err != nil {
			t.Fatal(err)
		}
	}
	gens = l.DatasetGenerations()
	RunAll(context.Background(), l, l.Reference, NewDeviceSet(1), 0)
	RunAll(context.Background(), l, l.Reference, NewDeviceSet(1), 0)
	if l.DatasetGenerations() != gens {
		t.Errorf("grading runs regenerated datasets: %d -> %d", gens, l.DatasetGenerations())
	}
	if _, err := l.Dataset(l.NumDatasets); err == nil {
		t.Error("out-of-range dataset id accepted")
	}
}

// TestRunValidatesDatasetBeforeCompile asserts the range check happens
// before compile time is spent: an out-of-range run with a unique source
// must not touch the program cache at all.
func TestRunValidatesDatasetBeforeCompile(t *testing.T) {
	l := ByID("vector-add")
	src := l.Reference + "\n// pre-compile validation probe\n"
	before := progcache.Default.Stats()
	o := Run(context.Background(), l, src, 99, NewDeviceSet(1), 0)
	after := progcache.Default.Stats()

	if o.Compiled {
		t.Error("out-of-range run reported Compiled")
	}
	if o.RuntimeError == "" || !strings.Contains(o.RuntimeError, "out of range") {
		t.Errorf("RuntimeError = %q", o.RuntimeError)
	}
	if after.Misses != before.Misses || after.Hits != before.Hits {
		t.Error("out-of-range dataset still reached the compiler")
	}
}

// TestRunAllParallelMatchesSerial runs the multi-dataset fan-out on a
// device set wide enough for four parallel slots and checks the outcomes
// are ordered and correct, identically to the single-slot path.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	l := ByID("vector-add")
	serial := RunAll(context.Background(), l, l.Reference, NewDeviceSet(1), 0)
	parallel := RunAll(context.Background(), l, l.Reference, NewDeviceSet(4), 0)
	if len(serial) != len(parallel) {
		t.Fatalf("outcome counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if parallel[i].DatasetID != i {
			t.Errorf("parallel outs[%d].DatasetID = %d", i, parallel[i].DatasetID)
		}
		if serial[i].Correct != parallel[i].Correct || serial[i].Ran != parallel[i].Ran {
			t.Errorf("dataset %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// TestRunAllCompileErrorShape: a compile failure is reported once per
// dataset, preserving the grading shape.
func TestRunAllCompileErrorShape(t *testing.T) {
	l := ByID("vector-add")
	outs := RunAll(context.Background(), l, "__global__ void vecAdd(float *a { nope", NewDeviceSet(1), 0)
	if len(outs) != l.NumDatasets {
		t.Fatalf("outcomes = %d, want %d", len(outs), l.NumDatasets)
	}
	for i, o := range outs {
		if o.Compiled || o.CompileError == "" {
			t.Errorf("dataset %d: %+v", i, o)
		}
		if o.DatasetID != i {
			t.Errorf("outs[%d].DatasetID = %d", i, o.DatasetID)
		}
	}
}
