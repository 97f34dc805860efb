// Package progcache is a content-addressed cache of compiled minicuda
// programs. The paper's deadline spikes (§VII) have thousands of
// near-identical submissions arriving in the final hours — the same lab's
// sources are compiled over and over. Keying compiled programs by a hash
// of (dialect, source) turns those repeats into cache hits, and
// singleflight deduplication makes concurrent jobs carrying identical
// source trigger exactly one compile: every other job waits for the
// in-flight result instead of redoing the work.
//
// Compiled programs are immutable after semantic analysis, but for the
// warp code their first launch builds once, so a cached
// *minicuda.Program is safe to share across concurrent kernel launches;
// compile *errors* are cached too (compilation is deterministic, so a
// source that failed once fails identically forever).
//
// An entry holds a parse tree only once something asks for the program.
// Most lookups are Compile clicks and drafts, which need a verdict and
// diagnostics and never run: Check answers them, and once such an
// entry's diagnostics are cached it keeps the verdict, the function
// count and the diagnostics, and drops the tree. CompileStatus pins an
// entry's program for the rest of its life, rebuilding a dropped one
// first, counted as a miss: a store read when a store is attached, else
// a compile.
package progcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"webgpu/internal/castore"
	"webgpu/internal/kernelcheck"
	"webgpu/internal/metrics"
	"webgpu/internal/minicuda"
)

// Status reports how a Compile call was satisfied.
type Status int

// Compile statuses.
const (
	Miss      Status = iota // compiled by this call
	Hit                     // served from the cache
	Coalesced               // waited on another goroutine's in-flight compile
)

func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// DefaultCapacity bounds the process-wide Default cache. A compiled lab
// submission is a few kilobytes of AST, which an entry nothing has asked
// the program of drops once its diagnostics are cached, so even thousands
// of distinct sources stay cheap; the bound exists so an adversarial
// stream of unique sources cannot grow memory without limit.
const DefaultCapacity = 4096

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits            int64 // served from the cache
	HitsDiagnostics int64 // diagnostics served without re-analysis
	Misses          int64 // absent from memory (disk or compile filled it)
	Coalesced       int64 // waited on a concurrent identical compile
	Evictions       int64 // entries dropped by the LRU bound
	Compiles        int64 // underlying compile executions (== Misses - DiskHits)
	Analyzes        int64 // kernelcheck runs (first request per entry)
	FnAnalyzed      int64 // functions those runs analyzed
	FnReused        int64 // functions Diagnostics reported reused: spliced by a run, or all of a hit's
	DiskHits        int64 // programs decoded from the durable store instead of compiled
	DiskDiagHits    int64 // diagnostics decoded from the durable store instead of analyzed
	StoreErrors     int64 // write-throughs the durable store refused (artifact kept in memory only)
	Size            int   // entries currently cached
	Programs        int   // entries holding a program (the rest hold a verdict and diagnostics)
	BytecodeBytes   int64 // lowered-bytecode bytes cached programs hold (0 until a program's first launch)
}

// ProgBlob is the castore blob name for the serialized program: both
// program kinds are one stream (the decoded program carries the tree and
// lowers to warp code on its first launch).
const ProgBlob = "prog"

// DiagBlob is the castore blob name diagnostics persist under as JSON.
// It embeds the analyzer's ruleset version, so bumping
// kernelcheck.RulesetVersion orphans stale persisted diagnostics
// instead of serving findings an older ruleset produced.
var DiagBlob = "diag-" + kernelcheck.RulesetVersion

type entry struct {
	key    string
	err    error
	nfuncs int // the program's function count, kept when its tree is not
	elem   *list.Element

	// prog is the compiled program, guarded by Cache.mu. It is dropped
	// once the diagnostics are cached unless pinned, which a caller that
	// asked for the program (CompileStatus) makes it for the entry's
	// life. prog == nil implies err != nil or the diagnostics are cached.
	prog   *minicuda.Program
	pinned bool

	// Diagnostics are a derived artifact, computed on first request and
	// then served from the entry like the program itself.
	diagsOnce sync.Once
	diags     []kernelcheck.Diagnostic
}

// flight is one in-progress fill (a compile or a store read) that
// concurrent callers wait on.
type flight struct {
	done chan struct{}
	e    *entry
	prog *minicuda.Program
	err  error
}

// CompileFunc is the underlying compiler the cache fills itself from.
type CompileFunc func(src string, dialect minicuda.Dialect) (*minicuda.Program, error)

// Cache is a size-bounded, LRU, content-addressed program cache with
// singleflight deduplication. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*entry
	lru      *list.List // front = most recently used
	inflight map[string]*flight
	compile  CompileFunc
	store    *castore.Store           // optional durable tier; nil = memory only
	kc       *kernelcheck.Incremental // every analysis runs through it
	stats    Stats
}

// Default is the process-wide cache shared by callers that do not manage
// their own (the labs package, worker nodes without an explicit cache).
var Default = New(DefaultCapacity, nil)

// New creates a cache holding at most capacity compiled programs
// (capacity <= 0 means unbounded). When reg is non-nil the cache registers
// a collector on it, as castore.Options.Metrics does: every export reads
// Stats once, so each series is present from the first scrape and the hot
// path touches no registry.
func New(capacity int, reg *metrics.Registry) *Cache {
	c := &Cache{
		capacity: capacity,
		entries:  map[string]*entry{},
		lru:      list.New(),
		inflight: map[string]*flight{},
		compile:  minicuda.Compile,
		kc:       kernelcheck.NewIncremental(),
	}
	if reg != nil {
		reg.AddCollector(func(r *metrics.Registry) {
			s := c.Stats()
			r.Set("progcache_entries", float64(s.Size))
			r.Set("progcache_programs", float64(s.Programs))
			r.Set("progcache_evictions", float64(s.Evictions))
			r.Set("progcache_hits_diagnostics", float64(s.HitsDiagnostics))
			r.Set("progcache_bytecode_bytes", float64(s.BytecodeBytes))
			r.Set("progcache_disk_hits", float64(s.DiskHits))
			r.Set("progcache_disk_diag_hits", float64(s.DiskDiagHits))
			r.Set("progcache_store_errors", float64(s.StoreErrors))
			r.Set("kernelcheck_analyzes", float64(s.Analyzes))
			r.Set("kernelcheck_fn_analyzed", float64(s.FnAnalyzed))
			r.Set("kernelcheck_fn_reused", float64(s.FnReused))
		})
	}
	return c
}

// SetCompileFunc overrides the underlying compiler (tests use this to
// inject slow or instrumented compiles). Not safe to call concurrently
// with Compile.
func (c *Cache) SetCompileFunc(fn CompileFunc) {
	if fn == nil {
		fn = minicuda.Compile
	}
	c.compile = fn
}

// SetStore attaches a durable content-addressed store as the tier below
// the in-memory LRU: misses consult it before compiling (read-through)
// and successful compiles persist into it (write-through). A nil store
// detaches. Safe to call concurrently, though the usual shape is
// attach-once at boot.
func (c *Cache) SetStore(s *castore.Store) {
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
}

// Store returns the attached durable store, or nil.
func (c *Cache) Store() *castore.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// Key returns the content address of a (source, dialect) pair: the hex
// SHA-256 of the dialect tag and the raw source text.
func Key(src string, dialect minicuda.Dialect) string {
	h := sha256.New()
	h.Write([]byte{byte(dialect), 0})
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// Compile returns the compiled program for the source, compiling at most
// once per distinct (source, dialect) while the entry stays cached.
func (c *Cache) Compile(src string, dialect minicuda.Dialect) (*minicuda.Program, error) {
	prog, _, err := c.CompileStatus(src, dialect)
	return prog, err
}

// CompileStatus is Compile plus how the call was satisfied. The entry
// keeps the program it returns for the rest of its life. An entry that
// had dropped its tree rebuilds it first, through the same singleflight
// as a miss, and counts as one: a store read when a store is attached,
// else a compile.
func (c *Cache) CompileStatus(src string, dialect minicuda.Dialect) (*minicuda.Program, Status, error) {
	_, prog, st, err := c.lookup(Key(src, dialect), src, dialect, true)
	return prog, st, err
}

// Check is CompileStatus without the program: the verdict (the compile
// error, or none) and how it was satisfied. What a compile-only caller
// asks for: an entry filled by Check drops its tree once its diagnostics
// are cached, unless a CompileStatus has asked for the program since.
func (c *Cache) Check(src string, dialect minicuda.Dialect) (Status, error) {
	_, _, st, err := c.lookup(Key(src, dialect), src, dialect, false)
	return st, err
}

// lookup returns key's entry, filling it on a miss, with the program it
// holds (nil for a verdict-only entry). With pin the caller wants the
// program: the entry keeps it from then on, and a verdict-only entry
// rebuilds it first. The entry may have been evicted by the time the
// caller reads it.
func (c *Cache) lookup(key, src string, dialect minicuda.Dialect, pin bool) (*entry, *minicuda.Program, Status, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		if !pin || e.err != nil || e.prog != nil {
			c.stats.Hits++
			e.pinned = e.pinned || pin
			prog := e.prog
			c.mu.Unlock()
			return e, prog, Hit, e.err
		}
	}
	if f, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-f.done
		if pin {
			// The flight may have been a Check whose entry has since
			// dropped its tree: give the entry back the one it built.
			c.mu.Lock()
			f.e.adopt(f.prog, true)
			c.mu.Unlock()
		}
		return f.e, f.prog, Coalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.stats.Misses++
	store := c.store
	c.mu.Unlock()

	prog, fromDisk, err := c.build(store, key, src, dialect)

	c.mu.Lock()
	if fromDisk {
		c.stats.DiskHits++
	} else {
		c.stats.Compiles++
	}
	delete(c.inflight, key)
	e := c.entries[key] // present when this flight rebuilt a dropped tree
	if e == nil {
		e = &entry{key: key, err: err}
		if prog != nil {
			e.nfuncs = len(prog.Funcs)
		}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		for c.capacity > 0 && c.lru.Len() > c.capacity {
			back := c.lru.Back()
			old := back.Value.(*entry)
			c.lru.Remove(back)
			delete(c.entries, old.key)
			c.stats.Evictions++
		}
	}
	e.adopt(prog, pin)
	f.e, f.prog, f.err = e, prog, err
	c.mu.Unlock()
	close(f.done)
	return e, prog, Miss, err
}

// build fills a miss. Read-through: it consults the durable store before
// compiling. A decode failure (codec version skew, say) discards the
// stale entry and falls through to a fresh compile; the store itself
// quarantines hash-mismatched files and reports them as misses, so a
// corrupt artifact can only ever cost a recompile.
func (c *Cache) build(store *castore.Store, key, src string, dialect minicuda.Dialect) (*minicuda.Program, bool, error) {
	if store != nil {
		if data, ok := store.Get(key, ProgBlob); ok {
			if p, derr := minicuda.DecodeProgram(data); derr == nil {
				return p, true, nil
			}
			store.Discard(key, ProgBlob)
		}
	}
	prog, err := c.compile(src, dialect)
	// Write-through, best effort: only successful compiles persist
	// (errors are deterministic and cheap to rediscover, and a poisoned
	// error entry on shared disk would outlive the process that wrote
	// it).
	if err == nil && prog != nil && store != nil {
		if data, eerr := minicuda.EncodeProgram(prog); eerr == nil {
			c.persist(store, key, ProgBlob, data)
		}
	}
	return prog, false, err
}

// adopt gives the entry a program a flight built, if it holds none, and
// pins it for a caller that asked for it. Called with Cache.mu held.
func (e *entry) adopt(prog *minicuda.Program, pin bool) {
	if prog == nil {
		return
	}
	if e.prog == nil {
		e.prog = prog
	}
	e.pinned = e.pinned || pin
}

// Diagnostics returns the kernelcheck analysis for the source, checking
// it first if needed. The diagnostics are a derived artifact cached on
// the program's entry: analysis runs once per distinct (source, dialect)
// and every later call is a hit, which reports every function reused.
// The one analysis runs through the cache's engine, so a function
// another source already had is spliced, not re-analyzed. Once they are
// cached, an entry no CompileStatus has asked the program of drops its
// tree. The returned slice is shared — callers must not mutate it.
func (c *Cache) Diagnostics(src string, dialect minicuda.Dialect) (kernelcheck.Result, error) {
	// Entry-first lookup: a pipeline that just compiled this source must
	// not count a second cache hit (the worker's compile and analysis
	// stages would otherwise double every hit counter).
	key := Key(src, dialect)
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		var err error
		if e, _, _, err = c.lookup(key, src, dialect, false); err != nil {
			return kernelcheck.Result{}, err
		}
	}
	if e.err != nil {
		return kernelcheck.Result{}, e.err
	}

	store := c.Store()
	res := kernelcheck.Result{Reused: e.nfuncs, Total: e.nfuncs}
	analyzed, fromDisk := false, false
	e.diagsOnce.Do(func() {
		// Read-through: diagnostics persist as JSON beside the program
		// artifact. An unparseable entry is discarded and re-analyzed.
		if store != nil {
			if data, ok := store.Get(key, DiagBlob); ok {
				var diags []kernelcheck.Diagnostic
				if json.Unmarshal(data, &diags) == nil {
					e.diags = diags
					fromDisk = true
					return
				}
				store.Discard(key, DiagBlob)
			}
		}
		analyzed = true
		// No entry drops its tree before its diagnostics are cached.
		c.mu.Lock()
		prog := e.prog
		c.mu.Unlock()
		res = c.analyze(prog)
		e.diags = res.Diagnostics
		if store != nil {
			if data, merr := json.Marshal(e.diags); merr == nil {
				c.persist(store, key, DiagBlob, data)
			}
		}
	})
	c.mu.Lock()
	if !e.pinned {
		e.prog = nil
	}
	if !analyzed {
		if fromDisk {
			c.stats.DiskDiagHits++
		} else {
			c.stats.HitsDiagnostics++
		}
		c.stats.FnReused += int64(e.nfuncs)
	}
	c.mu.Unlock()
	res.Diagnostics = e.diags
	return res, nil
}

// analyze runs kernelcheck through the cache's engine and counts the run.
func (c *Cache) analyze(prog *minicuda.Program) kernelcheck.Result {
	res := c.kc.Analyze(prog)
	c.mu.Lock()
	c.stats.Analyzes++
	c.stats.FnAnalyzed += int64(res.Analyzed)
	c.stats.FnReused += int64(res.Reused)
	c.mu.Unlock()
	return res
}

// persist writes an artifact through to the durable store, best effort: a
// refused write leaves the artifact in memory only and is counted, so a
// store that has stopped taking writes shows up before the next restart
// recompiles everything. Called without c.mu.
func (c *Cache) persist(store *castore.Store, key, blob string, data []byte) {
	if err := store.Put(key, blob, data); err != nil {
		c.mu.Lock()
		c.stats.StoreErrors++
		c.mu.Unlock()
	}
}

// Stats snapshots the counters. Programs and BytecodeBytes are summed
// over the entries at the call: a program lowers on its first launch, not
// when it is cached.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = len(c.entries)
	for _, e := range c.entries {
		if e.prog != nil {
			s.Programs++
			s.BytecodeBytes += int64(e.prog.BytecodeBytes())
		}
	}
	return s
}
