package labs

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"webgpu/internal/gpusim"
	"webgpu/internal/progcache"
	"webgpu/internal/wb"
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
	d2, err := l.Dataset(0)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("second Dataset(0) regenerated the data")
	}
	// Full grading runs must not regenerate anything once datasets exist:
	// a regenerated dataset would be a new object.
	cached := make([]*wb.Dataset, l.NumDatasets)
	for i := range cached {
		if cached[i], err = l.Dataset(i); err != nil {
			t.Fatal(err)
		}
	}
	RunAll(context.Background(), l, l.Reference, NewDeviceSet(1), 0)
	RunAll(context.Background(), l, l.Reference, NewDeviceSet(1), 0)
	for i, want := range cached {
		if got, _ := l.Dataset(i); got != want {
			t.Errorf("grading runs regenerated dataset %d", i)
		}
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

// TestDatasetFilesParsedOnce: a dataset file is decoded by the first run
// that loads it and never again, every load is the caller's own copy (a
// harness may write into its inputs), and every parsing method of the
// host API returns what the wb parser returns.
func TestDatasetFilesParsedOnce(t *testing.T) {
	l := ByID("vector-add")
	entry := l.dataset(0)
	if entry.err != nil {
		t.Fatal(entry.err)
	}
	data := entry.ds.Input("input0.raw")
	parses := 0
	counting := func(d []byte) ([]float32, error) { parses++; return wb.ParseVector(d) }
	var files parsedFiles
	for run := 0; run < 3; run++ {
		rc := &RunContext{Dataset: entry.ds, files: &files}
		if _, err := parsed(rc, data, counting); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := parsed(&RunContext{Dataset: entry.ds}, data, counting); err != nil {
		t.Fatal(err)
	}
	if parses != 2 {
		t.Errorf("3 runs sharing a cache and 1 without parsed the file %d times, want 1 + 1", parses)
	}
	// The same blob read as another type is parsed as that type, not
	// served the cached one.
	if ints := (&RunContext{files: &files}).IntVector(wb.IntVectorBytes([]int32{7, 8})); len(ints) != 2 {
		t.Errorf("int vector = %v", ints)
	}
	if _, err := parsed(&RunContext{files: &files}, data, wb.ParseIntVector); err == nil {
		t.Error("a float vector parsed as an int vector")
	}

	rc := &RunContext{Dataset: entry.ds, files: &entry.files}
	want, err := wb.ParseVector(data)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		got := rc.Vector(rc.Input("input0.raw"))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: Vector = %v; want %v", run, got, want)
		}
		for i := range got {
			got[i] = -1 // a harness scribbling on its input
		}
	}

	// Every parsing method against its wb parser, on every file of every lab:
	// first load (parsed) and second (copied from the cache).
	for _, l := range All() {
		for id := 0; id < l.NumDatasets; id++ {
			entry := l.dataset(id)
			if entry.err != nil {
				t.Fatal(entry.err)
			}
			rc := &RunContext{Dataset: entry.ds, files: &parsedFiles{}}
			for _, f := range append(append([]wb.File{}, entry.ds.Inputs...), entry.ds.Expected) {
				for load := 0; load < 2; load++ {
					where := fmt.Sprintf("%s dataset %d %s load %d", l.ID, id, f.Name, load)
					if v, err := wb.ParseVector(f.Data); err == nil {
						if got := rc.Vector(f.Data); !reflect.DeepEqual(got, v) {
							t.Errorf("%s: Vector differs from wb.ParseVector", where)
						}
					}
					if v, err := wb.ParseIntVector(f.Data); err == nil {
						if got := rc.IntVector(f.Data); !reflect.DeepEqual(got, v) {
							t.Errorf("%s: IntVector differs from wb.ParseIntVector", where)
						}
					}
					if v, r, c, err := wb.ParseMatrix(f.Data); err == nil {
						if got, gr, gc := rc.Matrix(f.Data); gr != r || gc != c || !reflect.DeepEqual(got, v) {
							t.Errorf("%s: Matrix differs from wb.ParseMatrix", where)
						}
					}
					if v, w, h, err := wb.ParseImage(f.Data); err == nil {
						if got, gw, gh := rc.Image(f.Data); gw != w || gh != h || !reflect.DeepEqual(got, v) {
							t.Errorf("%s: Image differs from wb.ParseImage", where)
						}
					}
					if v, err := wb.ParseCSR(f.Data); err == nil {
						if got := rc.CSR(f.Data); !reflect.DeepEqual(got, v) {
							t.Errorf("%s: CSR differs from wb.ParseCSR", where)
						}
					}
				}
			}
		}
	}
}

// TestKernelStatsCoverLaunchStats: every integer counter gpusim reports
// for a launch reaches KernelStats under the same name, or is listed here
// as one the Attempts view deliberately leaves out — so a counter gpusim
// grows is a decision, not an omission.
func TestKernelStatsCoverLaunchStats(t *testing.T) {
	unreported := map[string]bool{"ALUOps": true, "SpecialOps": true, "Branches": true, "ConstLoads": true,
		"SimTime": true, "WallTime": true} // the durations are summed into Outcome.SimTime / measured per run
	var s gpusim.LaunchStats
	sv := reflect.ValueOf(&s).Elem()
	s.Name = "k"
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.CanInt() {
			f.SetInt(int64(100 + i))
		}
	}
	kv := reflect.ValueOf(kernelStatsOf(&s))
	if kv.FieldByName("Name").String() != "k" {
		t.Errorf("Name = %q", kv.FieldByName("Name").String())
	}
	for i := 0; i < sv.NumField(); i++ {
		name, f := sv.Type().Field(i).Name, sv.Field(i)
		if !f.CanInt() {
			continue
		}
		kf := kv.FieldByName(name)
		switch {
		case unreported[name] && kf.IsValid():
			t.Errorf("%s is listed as unreported but KernelStats has it", name)
		case unreported[name]:
		case !kf.IsValid():
			t.Errorf("LaunchStats.%s has no KernelStats counterpart and is not listed as unreported", name)
		case kf.Int() != f.Int():
			t.Errorf("KernelStats.%s = %d, LaunchStats.%s = %d: kernelStatsOf drops it", name, kf.Int(), name, f.Int())
		}
	}
	for i := 0; i < kv.NumField(); i++ {
		if name := kv.Type().Field(i).Name; !sv.FieldByName(name).IsValid() {
			t.Errorf("KernelStats.%s has no LaunchStats source", name)
		}
	}
}
