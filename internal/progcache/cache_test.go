package progcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webgpu/internal/metrics"
	"webgpu/internal/minicuda"
)

func kernelSrc(tag int) string {
	return fmt.Sprintf(`__global__ void k%d(float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) out[i] = %d.0f;
}`, tag, tag)
}

func TestCompileHitAndMiss(t *testing.T) {
	c := New(8, nil)
	src := kernelSrc(1)

	p1, st, err := c.CompileStatus(src, minicuda.DialectCUDA)
	if err != nil || st != Miss {
		t.Fatalf("first compile: status=%v err=%v", st, err)
	}
	p2, st, err := c.CompileStatus(src, minicuda.DialectCUDA)
	if err != nil || st != Hit {
		t.Fatalf("second compile: status=%v err=%v", st, err)
	}
	if p1 != p2 {
		t.Error("hit did not return the cached program pointer")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Compiles != 1 || s.Size != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCompileErrorCached(t *testing.T) {
	c := New(8, nil)
	var calls atomic.Int64
	c.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		calls.Add(1)
		return minicuda.Compile(src, d)
	})
	broken := "__global__ void k(float *out int len) {}" // missing comma
	if _, err := c.Compile(broken, minicuda.DialectCUDA); err == nil {
		t.Fatal("broken source compiled")
	}
	if _, err := c.Compile(broken, minicuda.DialectCUDA); err == nil {
		t.Fatal("broken source compiled on the second try")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compile executed %d times, want 1 (errors are cached)", n)
	}
}

func TestDialectDistinguished(t *testing.T) {
	src := kernelSrc(2)
	if Key(src, minicuda.DialectCUDA) == Key(src, minicuda.DialectOpenCL) {
		t.Error("identical keys for different dialects")
	}
	if Key(src, minicuda.DialectCUDA) != Key(src, minicuda.DialectCUDA) {
		t.Error("key not deterministic")
	}
}

func TestLRUEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(2, reg)
	a, b, d := kernelSrc(10), kernelSrc(11), kernelSrc(12)

	mustCompile := func(src string) {
		t.Helper()
		if _, err := c.Compile(src, minicuda.DialectCUDA); err != nil {
			t.Fatal(err)
		}
	}
	mustCompile(a)
	mustCompile(b)
	mustCompile(a) // touch a: b becomes least recently used
	mustCompile(d) // evicts b

	if _, st, _ := c.CompileStatus(a, minicuda.DialectCUDA); st != Hit {
		t.Errorf("a evicted despite being recently used (status %v)", st)
	}
	if _, st, _ := c.CompileStatus(b, minicuda.DialectCUDA); st != Miss {
		t.Errorf("b not evicted (status %v)", st)
	}
	s := c.Stats()
	if s.Evictions != 2 || s.Size != 2 { // b evicted by d, then a or d evicted by b's recompile
		t.Errorf("stats = %+v", s)
	}
	reg.Collect()
	if got := reg.Gauge("progcache_evictions"); got != 2 {
		t.Errorf("metrics evictions = %g", got)
	}
	if got := reg.Gauge("progcache_entries"); got != 2 {
		t.Errorf("metrics entries gauge = %g", got)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New(8, nil)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	c.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		calls.Add(1)
		close(started)
		<-release
		return minicuda.Compile(src, d)
	})

	src := kernelSrc(3)
	const waiters = 7
	var wg sync.WaitGroup
	leaderDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Compile(src, minicuda.DialectCUDA)
		leaderDone <- err
	}()
	<-started // the leader is inside the compile, holding the flight open

	statuses := make(chan Status, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, st, err := c.CompileStatus(src, minicuda.DialectCUDA)
			if err != nil {
				t.Errorf("coalesced compile: %v", err)
			}
			statuses <- st
		}()
	}
	// Wait for every waiter to register as coalesced before releasing.
	deadline := time.After(5 * time.Second)
	for c.Stats().Coalesced < waiters {
		select {
		case <-deadline:
			t.Fatalf("waiters did not coalesce: %+v", c.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	if err := <-leaderDone; err != nil {
		t.Fatalf("leader compile: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compile executed %d times, want 1", n)
	}
	for i := 0; i < waiters; i++ {
		if st := <-statuses; st != Coalesced {
			t.Errorf("waiter status = %v, want Coalesced", st)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != waiters || s.Compiles != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConcurrentMixedSources(t *testing.T) {
	c := New(64, nil)
	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Alternate between one shared source and a per-goroutine one.
				src := kernelSrc(0)
				if i%2 == 1 {
					src = kernelSrc(100 + g)
				}
				if _, err := c.Compile(src, minicuda.DialectCUDA); err != nil {
					t.Errorf("compile: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	// One shared source + one per goroutine = 9 distinct compiles, ever.
	if s.Compiles != goroutines+1 {
		t.Errorf("compiles = %d, want %d; stats %+v", s.Compiles, goroutines+1, s)
	}
	if total := s.Hits + s.Misses + s.Coalesced; total != goroutines*iters {
		t.Errorf("accounted accesses = %d, want %d", total, goroutines*iters)
	}
}

func TestArtifactStats(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(2, reg)
	src := kernelSrc(40)

	p, _, err := c.CompileStatus(src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if want := int64(p.BytecodeBytes()); s.BytecodeBytes != want || want == 0 {
		t.Fatalf("BytecodeBytes = %d, want %d (nonzero)", s.BytecodeBytes, want)
	}
	if _, st, _ := c.CompileStatus(src, minicuda.DialectCUDA); st != Hit {
		t.Fatalf("status = %v, want Hit", st)
	}
	s = c.Stats()
	split := s.HitsBytecodeWarp + s.HitsAST
	if split != 1 || split != s.Hits {
		t.Fatalf("hit split %d+%d does not cover %d hits",
			s.HitsBytecodeWarp, s.HitsAST, s.Hits)
	}
	if p.ArtifactKind() == "bytecode-warp" {
		if s.HitsBytecodeWarp != 1 {
			t.Fatalf("stats = %+v, want the hit counted as bytecode-warp", s)
		}
		reg.Collect()
		if reg.Gauge("progcache_hits_bytecode_warp") != 1 {
			t.Fatalf("progcache_hits_bytecode_warp = %v, want 1",
				reg.Gauge("progcache_hits_bytecode_warp"))
		}
	}

	// Evicting an entry releases its artifact bytes.
	if _, err := c.Compile(kernelSrc(41), minicuda.DialectCUDA); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(kernelSrc(42), minicuda.DialectCUDA); err != nil {
		t.Fatal(err)
	}
	s = c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	var total int64
	c.mu.Lock()
	for _, e := range c.entries {
		total += e.bcBytes
	}
	c.mu.Unlock()
	if s.BytecodeBytes != total {
		t.Fatalf("BytecodeBytes = %d, want %d (sum over live entries)", s.BytecodeBytes, total)
	}
}
