package worker

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
	"webgpu/internal/progcache"
	"webgpu/internal/sandbox"
)

// uniqueSource returns the vector-add reference with a tag that changes
// its content hash without changing its meaning.
func uniqueSource(tag string) string {
	return labs.ByID("vector-add").Reference + "\n// variant " + tag + "\n"
}

// TestNodeExecutesConcurrently proves a node with a container pool of
// size k runs k jobs at once without serializing on a node-wide mutex:
// three jobs with distinct sources are held inside the compiler behind a
// gate, which only opens once all three are in flight simultaneously.
func TestNodeExecutesConcurrently(t *testing.T) {
	const k = 3
	cache := progcache.New(16, nil)
	ready := make(chan struct{}, k)
	release := make(chan struct{})
	cache.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		ready <- struct{}{}
		<-release
		return minicuda.Compile(src, d)
	})
	cfg := DefaultNodeConfig("stress")
	cfg.Images = DefaultImages()[:1] // one image, k warm containers: admission is k
	cfg.PerImage = k
	cfg.ProgCache = cache
	n := NewNode(cfg)

	results := make(chan *Result, k)
	for i := 0; i < k; i++ {
		job := refJob(fmt.Sprintf("j%d", i), "vector-add", 0)
		job.Source = uniqueSource(fmt.Sprintf("concurrent-%d", i))
		go func(job *Job) { results <- n.Execute(context.Background(), job) }(job)
	}
	// All k jobs must reach the compiler together; if execution were
	// serialized, the first job would block in the gate forever while the
	// other two wait on the mutex, and this loop would time out.
	for i := 0; i < k; i++ {
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d jobs entered execution concurrently — node serialized", i, k)
		}
	}
	close(release)
	for i := 0; i < k; i++ {
		if res := <-results; !res.Correct() {
			t.Errorf("job failed: %+v", res)
		}
	}
}

// TestNodeStressMixedSources drives concurrent Execute calls carrying
// identical and distinct sources (run with -race) and asserts the cache
// counters: every distinct source compiles exactly once, everything else
// is a hit or a coalesced wait. As each job's datasets are dispatched it
// counts the pool's containers in use, which admission bounds.
func TestNodeStressMixedSources(t *testing.T) {
	cache := progcache.New(64, nil)
	cfg := DefaultNodeConfig("stress2")
	cfg.PerImage = 2
	cfg.ProgCache = cache
	n := NewNode(cfg)
	var mu sync.Mutex
	maxInUse := 0
	n.at = func(point string) {
		if point != "exec" {
			return
		}
		p := n.pool
		p.mu.Lock()
		inUse := int(p.created - p.destroyed)
		for _, free := range p.free {
			inUse -= len(free)
		}
		p.mu.Unlock()
		mu.Lock()
		maxInUse = max(maxInUse, inUse)
		mu.Unlock()
	}

	const goroutines = 6
	const iters = 5
	shared := uniqueSource("stress-shared")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				src := shared
				if i%2 == 1 {
					src = uniqueSource(fmt.Sprintf("stress-%d", g))
				}
				job := refJob(fmt.Sprintf("s%d-%d", g, i), "vector-add", 0)
				job.Source = src
				if res := n.Execute(context.Background(), job); !res.Correct() {
					t.Errorf("goroutine %d iter %d: %+v", g, i, res)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	s := cache.Stats()
	wantCompiles := int64(goroutines + 1) // one shared + one per goroutine
	if s.Compiles != wantCompiles {
		t.Errorf("compiles = %d, want %d (stats %+v)", s.Compiles, wantCompiles, s)
	}
	if total := s.Hits + s.Misses + s.Coalesced; total != goroutines*iters {
		t.Errorf("cache accesses = %d, want %d", total, goroutines*iters)
	}
	if maxInUse < 1 || maxInUse > cap(n.sem) {
		t.Errorf("%d containers in use at once, admission limit %d", maxInUse, cap(n.sem))
	}
	hits := n.Metrics().Counter("progcache_hits")
	misses := n.Metrics().Counter("progcache_misses")
	if misses != float64(wantCompiles) {
		t.Errorf("node metrics misses = %g, want %d", misses, wantCompiles)
	}
	if hits == 0 {
		t.Error("node metrics recorded no cache hits")
	}
}

// TestNodeRunAllCompileOnce: a grade-everything job compiles once, and a
// repeat submission of the same source compiles zero times.
func TestNodeRunAllCompileOnce(t *testing.T) {
	cache := progcache.New(16, nil)
	cfg := DefaultNodeConfig("once")
	cfg.ProgCache = cache
	n := NewNode(cfg)

	job := refJob("j1", "vector-add", DatasetAll)
	if res := n.Execute(context.Background(), job); !res.Correct() {
		t.Fatalf("grading run failed: %+v", res)
	}
	s := cache.Stats()
	if s.Compiles != 1 || s.Misses != 1 || s.Hits != 0 {
		t.Errorf("after RunAll: %+v (want exactly one compile)", s)
	}
	if res := n.Execute(context.Background(), refJob("j2", "vector-add", DatasetAll)); !res.Correct() {
		t.Fatalf("second grading run failed: %+v", res)
	}
	s = cache.Stats()
	if s.Compiles != 1 || s.Hits != 1 {
		t.Errorf("after repeat RunAll: %+v (want a pure cache hit)", s)
	}
}

// TestNodeCompileTimeout: the sandbox CompileTimeout is enforced in the
// job pipeline.
func TestNodeCompileTimeout(t *testing.T) {
	cache := progcache.New(16, nil)
	cache.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		time.Sleep(200 * time.Millisecond)
		return minicuda.Compile(src, d)
	})
	cfg := DefaultNodeConfig("slowc")
	cfg.Limits = sandbox.DefaultLimits()
	cfg.Limits.CompileTimeout = 10 * time.Millisecond
	cfg.ProgCache = cache
	n := NewNode(cfg)

	res := n.Execute(context.Background(), refJob("j1", "vector-add", 0))
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes = %+v", res.Outcomes)
	}
	o := res.Outcomes[0]
	if o.Compiled || !strings.Contains(o.CompileError, "exceeded") {
		t.Errorf("outcome = %+v, want a compile-timeout error", o)
	}
	if got := n.Metrics().Counter("compile_timeouts"); got != 1 {
		t.Errorf("compile_timeouts = %g", got)
	}
}

// TestNodeRejectsDatasetBeforeCompile: an out-of-range dataset never
// reaches the compiler.
func TestNodeRejectsDatasetBeforeCompile(t *testing.T) {
	cache := progcache.New(16, nil)
	cfg := DefaultNodeConfig("range")
	cfg.ProgCache = cache
	n := NewNode(cfg)
	res := n.Execute(context.Background(), refJob("j1", "vector-add", 99))
	if len(res.Outcomes) != 1 || !strings.Contains(res.Outcomes[0].RuntimeError, "out of range") {
		t.Fatalf("result = %+v", res)
	}
	if s := cache.Stats(); s.Misses+s.Hits+s.Coalesced != 0 {
		t.Errorf("out-of-range dataset touched the program cache: %+v", s)
	}
}

// TestPerContainerDevices: pooled containers own disjoint device sets, so
// concurrent jobs cannot reset each other's GPU state.
func TestPerContainerDevices(t *testing.T) {
	p := NewPool(DefaultImages(), 2, 2)
	a, err := p.Acquire("webgpu/cuda:7.0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Acquire("webgpu/cuda:7.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Devices) != 2 || len(b.Devices) != 2 {
		t.Fatalf("device counts: %d, %d, want 2 each", len(a.Devices), len(b.Devices))
	}
	for i := range a.Devices {
		if a.Devices[i] == b.Devices[i] {
			t.Errorf("containers %s and %s share device %d", a.ID, b.ID, i)
		}
	}
	if p.Capacity() != 2*len(DefaultImages()) {
		t.Errorf("capacity = %d", p.Capacity())
	}
}
