package progcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"webgpu/internal/castore"
	"webgpu/internal/faultinject"
	"webgpu/internal/kernelcheck"
	"webgpu/internal/metrics"
	"webgpu/internal/minicuda"
)

const storeTestSrc = `__global__ void vadd(int *out, int *a, int *b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { out[i] = a[i] + b[i]; }
}`

func variantSrc(i int) string {
	return fmt.Sprintf("// variant %d\n%s", i, storeTestSrc)
}

func openStore(t *testing.T, dir string) *castore.Store {
	t.Helper()
	s, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestReadThroughSkipsCompile: a second cache over the same store
// directory serves programs from disk without invoking the compiler.
func TestReadThroughSkipsCompile(t *testing.T) {
	dir := t.TempDir()
	c1 := New(16, nil)
	c1.SetStore(openStore(t, dir))
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := c1.Compile(variantSrc(i), minicuda.DialectCUDA); err != nil {
			t.Fatal(err)
		}
	}
	if st := c1.Stats(); st.Compiles != n || st.DiskHits != 0 {
		t.Fatalf("first cache stats = %+v", st)
	}

	c2 := New(16, nil)
	c2.SetStore(openStore(t, dir))
	compiles := 0
	c2.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		compiles++
		return minicuda.Compile(src, d)
	})
	for i := 0; i < n; i++ {
		prog, status, err := c2.CompileStatus(variantSrc(i), minicuda.DialectCUDA)
		if err != nil {
			t.Fatal(err)
		}
		if status != Miss {
			t.Fatalf("variant %d: status = %v, want Miss (memory miss, disk hit)", i, status)
		}
		if got := prog.Kernels(); len(got) != 1 || got[0] != "vadd" {
			t.Fatalf("decoded kernels = %v", got)
		}
	}
	if compiles != 0 {
		t.Fatalf("restart recompiled %d sources with warm store", compiles)
	}
	st := c2.Stats()
	if st.DiskHits != n || st.Compiles != 0 || st.Misses != n {
		t.Fatalf("second cache stats = %+v", st)
	}
	// Now cached in memory: a third request is a plain hit.
	if _, status, _ := c2.CompileStatus(variantSrc(0), minicuda.DialectCUDA); status != Hit {
		t.Fatalf("post-read-through status = %v, want Hit", status)
	}
}

// TestCompileErrorsNotPersisted: failed compiles stay in memory only, so
// a restart retries them (a deterministic failure recompiles cheaply and
// a poisoned shared-disk error can't outlive its writer).
func TestCompileErrorsNotPersisted(t *testing.T) {
	dir := t.TempDir()
	c1 := New(16, nil)
	store := openStore(t, dir)
	c1.SetStore(store)
	bad := "__global__ void broken(int *p) { p[0] = ; }"
	if _, err := c1.Compile(bad, minicuda.DialectCUDA); err == nil {
		t.Fatal("broken source compiled")
	}
	if st := store.Stats(); st.Puts != 0 {
		t.Fatalf("error artifact persisted: %+v", st)
	}
}

// TestDiagnosticsReadThrough: kernelcheck output persists as JSON and a
// restarted cache serves it without re-analysis.
func TestDiagnosticsReadThrough(t *testing.T) {
	dir := t.TempDir()
	// A kernel kernelcheck has something to say about: global access
	// indexed so adjacent threads stride, plus an unguarded bound.
	src := `__global__ void strided(int *out, int n) {
  int i = threadIdx.x;
  out[i * 32] = i;
}`
	c1 := New(16, nil)
	c1.SetStore(openStore(t, dir))
	first, err := c1.Diagnostics(src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Diagnostics
	if st := c1.Stats(); st.Analyzes != 1 || st.DiskDiagHits != 0 {
		t.Fatalf("first cache stats = %+v", st)
	}

	c2 := New(16, nil)
	c2.SetStore(openStore(t, dir))
	second, err := c2.Diagnostics(src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	got := second.Diagnostics
	if first.Analyzed != 1 || first.Reused != 0 || second.Analyzed != 0 || second.Reused != 1 {
		t.Fatalf("work split: analyzed %d/%d, reused %d/%d; want the first run to analyze and the disk hit to reuse",
			first.Analyzed, second.Analyzed, first.Reused, second.Reused)
	}
	st := c2.Stats()
	if st.Analyzes != 0 || st.DiskDiagHits != 1 {
		t.Fatalf("second cache stats = %+v (want disk diag hit, no analyze)", st)
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostics diverge: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("diagnostic %d diverges:\n%+v\n%+v", i, got[i], want[i])
		}
	}
}

// TestLostWriteThroughIsCounted: a store that refuses a write costs the
// artifact its durability, not the compile — and the loss is visible.
func TestLostWriteThroughIsCounted(t *testing.T) {
	faults := faultinject.New(7)
	faults.Enable(faultinject.PointCAStoreWrite, faultinject.Fault{})
	store, err := castore.Open(t.TempDir(), castore.Options{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := metrics.NewRegistry()
	c := New(16, reg)
	c.SetStore(store)
	if !strings.Contains(reg.PrometheusText(), "webgpu_progcache_store_errors 0\n") {
		t.Fatal("progcache_store_errors is not exported at 0 before the first error")
	}

	prog, status, err := c.CompileStatus(variantSrc(0), minicuda.DialectCUDA)
	if err != nil || prog == nil || status != Miss {
		t.Fatalf("compile with a failing store: prog=%v status=%v err=%v", prog, status, err)
	}
	reg.Collect()
	if st := c.Stats(); st.StoreErrors != 1 || reg.Gauge("progcache_store_errors") != 1 {
		t.Fatalf("StoreErrors = %d, gauge = %v, want 1 each", st.StoreErrors, reg.Gauge("progcache_store_errors"))
	}
	if st := store.Stats(); st.Puts != 0 || st.Objects != 0 {
		t.Fatalf("store holds something after a failed write: %+v", st)
	}

	// The diagnostics write-throughs count the same way.
	if _, err := c.Diagnostics(variantSrc(0), minicuda.DialectCUDA); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Diagnostics(variantSrc(1), minicuda.DialectCUDA); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.StoreErrors != 4 {
		t.Fatalf("StoreErrors = %d after two programs and two diagnostics, want 4", st.StoreErrors)
	}
	if st := store.Stats(); st.Objects != 0 {
		t.Fatalf("store holds %d objects, want 0", st.Objects)
	}
}

// TestCorruptStoreEntryRecompiles: an artifact the store cannot serve
// degrades to one recompile. A read fault means "disk said no" (the
// castore tests cover literal byte corruption, caught by hash
// verification); a frame that decodes but does not lower is discarded,
// never run.
func TestCorruptStoreEntryRecompiles(t *testing.T) {
	// A builtin call renamed in the frame's string table: well-formed,
	// but no engine has the builtin.
	const src = `__global__ void k(int *out) { out[threadIdx.x] = min(1, 2); }`
	prog, err := minicuda.Compile(src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := minicuda.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	frame = bytes.Replace(frame, []byte("min"), []byte("mzn"), 1)

	rows := []struct {
		name        string
		src         string
		seed        func(t *testing.T, dir string)
		readFault   bool
		wantDiscard int64
	}{
		{"read fault", variantSrc(0), func(t *testing.T, dir string) {
			c := New(16, nil)
			c.SetStore(openStore(t, dir))
			if _, err := c.Compile(variantSrc(0), minicuda.DialectCUDA); err != nil {
				t.Fatal(err)
			}
		}, true, 0},
		{"frame that does not lower", src, func(t *testing.T, dir string) {
			if err := openStore(t, dir).Put(Key(src, minicuda.DialectCUDA), ProgBlob, frame); err != nil {
				t.Fatal(err)
			}
		}, false, 1},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			dir := t.TempDir()
			r.seed(t, dir)
			var faults *faultinject.Registry
			if r.readFault {
				faults = faultinject.New(7)
				faults.Enable(faultinject.PointCAStoreRead, faultinject.Fault{})
			}
			store, err := castore.Open(dir, castore.Options{Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			c := New(16, nil)
			c.SetStore(store)
			prog, status, err := c.CompileStatus(r.src, minicuda.DialectCUDA)
			if err != nil || prog == nil {
				t.Fatalf("compile: %v", err)
			}
			if status != Miss {
				t.Fatalf("status = %v", status)
			}
			if st := c.Stats(); st.Compiles != 1 || st.DiskHits != 0 {
				t.Fatalf("stats = %+v (the entry must mean a compile)", st)
			}
			if got := store.Stats().Discards; got != r.wantDiscard {
				t.Fatalf("store discards = %d, want %d", got, r.wantDiscard)
			}
		})
	}
}

// TestDecodedProgramRunsIdentically: the program a restarted cache decodes
// from disk launches with the same results as the original compile.
func TestDecodedProgramRunsIdentically(t *testing.T) {
	dir := t.TempDir()
	src := `__global__ void sq(int *iout, float *fout, int n) {
  int i = threadIdx.x;
  if (i < n) { iout[i] = i * i; fout[0] = 2.5f; }
}`
	c1 := New(16, nil)
	c1.SetStore(openStore(t, dir))
	orig, err := c1.Compile(src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(16, nil)
	c2.SetStore(openStore(t, dir))
	dec, err := c2.Compile(src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Stats().DiskHits != 1 {
		t.Fatalf("expected disk hit, stats = %+v", c2.Stats())
	}
	if orig.InstructionCount() != dec.InstructionCount() ||
		orig.ConstSize() != dec.ConstSize() {
		t.Fatalf("decoded program structure diverges")
	}
}

// FuzzDiagBlob: whatever bytes sit under DiagBlob, Diagnostics serves them
// when they parse as a diagnostics list; otherwise it discards them,
// analyzes afresh and writes the fresh result through. It never panics.
func FuzzDiagBlob(f *testing.F) {
	const src = `__global__ void strided(int *out, int n) {
  int i = threadIdx.x;
  out[i * 32] = i;
}`
	fresh, err := New(0, nil).Diagnostics(src, minicuda.DialectCUDA)
	if err != nil {
		f.Fatal(err)
	}
	freshJSON, err := json.Marshal(fresh.Diagnostics)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(freshJSON)
	key := Key(src, minicuda.DialectCUDA)
	f.Fuzz(func(t *testing.T, data []byte) {
		store := openStore(t, t.TempDir())
		if err := store.Put(key, DiagBlob, data); err != nil {
			t.Fatal(err)
		}
		c := New(0, nil)
		c.SetStore(store)
		res, err := c.Diagnostics(src, minicuda.DialectCUDA)
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		var stored []kernelcheck.Diagnostic
		if json.Unmarshal(data, &stored) == nil {
			if st.DiskDiagHits != 1 || st.Analyzes != 0 || !reflect.DeepEqual(res.Diagnostics, stored) {
				t.Fatalf("a parseable blob was not served as stored: %d disk hits, %d analyses, got %+v, want %+v",
					st.DiskDiagHits, st.Analyzes, res.Diagnostics, stored)
			}
			return
		}
		if st.DiskDiagHits != 0 || st.Analyzes != 1 || !reflect.DeepEqual(res.Diagnostics, fresh.Diagnostics) {
			t.Fatalf("an unparseable blob was not re-analyzed: %d disk hits, %d analyses, got %+v, want %+v",
				st.DiskDiagHits, st.Analyzes, res.Diagnostics, fresh.Diagnostics)
		}
		if got, ok := store.Get(key, DiagBlob); !ok || !bytes.Equal(got, freshJSON) {
			t.Fatalf("the store holds %q (present %v) after the re-analysis, want the fresh %q", got, ok, freshJSON)
		}
	})
}
