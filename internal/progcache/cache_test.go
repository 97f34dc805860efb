package progcache

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webgpu/internal/gpusim"
	"webgpu/internal/kernelcheck"
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

// launchK runs kernelSrc(tag)'s kernel once, which lowers the program.
func launchK(t *testing.T, p *minicuda.Program, tag int) {
	t.Helper()
	dev := gpusim.NewDefaultDevice()
	out, err := dev.Malloc(32 * 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Launch(dev, fmt.Sprintf("k%d", tag), minicuda.LaunchOpts{Grid: gpusim.D1(1), Block: gpusim.D1(32)},
		minicuda.FloatPtr(out), minicuda.Int(32)); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactStats: BytecodeBytes is the lowered code the cached programs
// hold: none after a compile, a program's bytes once it has launched, and
// none of an evicted program's.
func TestArtifactStats(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(2, reg)
	src := kernelSrc(40)

	p, _, err := c.CompileStatus(src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	reg.Collect()
	if s := c.Stats(); s.BytecodeBytes != 0 || reg.Gauge("progcache_bytecode_bytes") != 0 {
		t.Fatalf("BytecodeBytes = %d, gauge = %v after a compile; want 0 each", s.BytecodeBytes, reg.Gauge("progcache_bytecode_bytes"))
	}
	launchK(t, p, 40)
	if want := int64(p.BytecodeBytes()); c.Stats().BytecodeBytes != want || want == 0 {
		t.Fatalf("BytecodeBytes = %d after a launch, want %d (nonzero)", c.Stats().BytecodeBytes, want)
	}
	if _, st, _ := c.CompileStatus(src, minicuda.DialectCUDA); st != Hit {
		t.Fatalf("status = %v, want Hit", st)
	}
	reg.Collect()
	if got := reg.Gauge("progcache_bytecode_bytes"); got != float64(p.BytecodeBytes()) {
		t.Fatalf("progcache_bytecode_bytes = %v, want %d", got, p.BytecodeBytes())
	}

	// Evicting an entry releases its artifact bytes.
	p41, err := c.Compile(kernelSrc(41), minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	launchK(t, p41, 41)
	if got, want := c.Stats().BytecodeBytes, int64(p.BytecodeBytes()+p41.BytecodeBytes()); got != want {
		t.Fatalf("BytecodeBytes = %d, want %d (both launched programs)", got, want)
	}
	if _, err := c.Compile(kernelSrc(42), minicuda.DialectCUDA); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if want := int64(p41.BytecodeBytes()); s.BytecodeBytes != want {
		t.Fatalf("BytecodeBytes = %d after evicting k40, want %d (k41's; k42 has not launched)", s.BytecodeBytes, want)
	}
}

// TestDiagnosticsShareFunctionsAcrossSources: two sources that differ
// only in a header of another line count have the same functions moved
// down, so the second analysis splices the first's, and the collector
// exports the split the results report — a whole-source hit counts all
// its functions reused.
func TestDiagnosticsShareFunctionsAcrossSources(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(8, reg)
	src := kernelSrc(1) + "\n" + kernelSrc(2)
	first, err := c.Diagnostics("// student 1\n"+src, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	secondSrc := "// student 2\n// of the next section\n" + src
	second, err := c.Diagnostics(secondSrc, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Diagnostics(secondSrc, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name             string
		res              kernelcheck.Result
		analyzed, reused int
	}{{"first source", first, 2, 0}, {"second source", second, 0, 2}, {"second source again", again, 0, 2}} {
		if r.res.Analyzed != r.analyzed || r.res.Reused != r.reused || r.res.Total != 2 {
			t.Errorf("%s: analyzed %d reused %d of %d, want %d/%d of 2", r.name, r.res.Analyzed, r.res.Reused, r.res.Total, r.analyzed, r.reused)
		}
	}
	prog, err := minicuda.Compile(secondSrc, minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(second.Diagnostics), fmt.Sprint(kernelcheck.Analyze(prog)); got != want {
		t.Errorf("spliced diagnostics differ from a full analysis:\n%v\n%v", got, want)
	}
	reg.Collect()
	if s := c.Stats(); s.Analyzes != 2 || s.HitsDiagnostics != 1 || s.FnAnalyzed != 2 || s.FnReused != 4 {
		t.Errorf("stats = %+v, want 2 analyzes, 1 diagnostics hit, 2 functions analyzed and 4 reused", s)
	}
	if a, r := reg.Gauge("kernelcheck_fn_analyzed"), reg.Gauge("kernelcheck_fn_reused"); a != 2 || r != 4 {
		t.Errorf("exported kernelcheck_fn_analyzed %v, kernelcheck_fn_reused %v, want 2 and 4", a, r)
	}
}

// TestDraftReuseSurvivesFreshBurst: a live draft keeps splicing its
// unchanged functions while other traffic streams more never-seen
// functions through the cache than its engine holds between two of its
// revisions. The draft's functions were hit by its second revision,
// which protects them; the burst's were seen once and evict each other.
func TestDraftReuseSurvivesFreshBurst(t *testing.T) {
	c := New(DefaultCapacity, nil)
	draft := func(rev int) kernelcheck.Result {
		t.Helper()
		res, err := c.Diagnostics(kernelSrc(1)+"\n"+kernelSrc(2)+"\n"+kernelSrc(1000+rev), minicuda.DialectCUDA)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := draft(0); res.Analyzed != 3 {
		t.Fatalf("first draft analyzed %d of 3", res.Analyzed)
	}
	if res := draft(1); res.Analyzed != 1 || res.Reused != 2 {
		t.Fatalf("second draft: analyzed %d reused %d, want 1 and 2", res.Analyzed, res.Reused)
	}
	const perSource = 128
	fresh := 0
	for rev := 2; rev <= 4; rev++ {
		// More fresh functions between two drafts than the engine holds.
		for gap := 0; gap <= kernelcheck.MaxCachedFns; gap += perSource {
			var sb strings.Builder
			for k := 0; k < perSource; k++ {
				fmt.Fprintf(&sb, "__global__ void b%d(int *out) { out[0] = %d; }\n", k, fresh)
				fresh++
			}
			if res, err := c.Diagnostics(sb.String(), minicuda.DialectCUDA); err != nil || res.Analyzed != perSource {
				t.Fatalf("burst source: analyzed %d of %d, err %v", res.Analyzed, perSource, err)
			}
		}
		if res := draft(rev); res.Analyzed != 1 || res.Reused != 2 {
			t.Fatalf("draft %d after %d fresh functions: analyzed %d reused %d, want 1 and 2", rev, fresh, res.Analyzed, res.Reused)
		}
	}
}
