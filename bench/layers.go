package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"webgpu/internal/castore"
	"webgpu/internal/db"
	"webgpu/internal/devsession"
	"webgpu/internal/gpusim"
	"webgpu/internal/grader"
	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/metrics"
	"webgpu/internal/minicuda"
	"webgpu/internal/overload"
	"webgpu/internal/progcache"
	"webgpu/internal/queue"
	"webgpu/internal/sandbox"
	"webgpu/internal/trace"
	"webgpu/internal/worker"
)

// The layer replays of a traced run: the benchmark calls each internal/
// package's public functions on fixed inputs — the 15 instructor
// references and seeded variants of them — with a span around every call.
// They run after the platform has been shut down, on a quiet process, and
// never during an untraced run.

// layerSpan is one timed call (or batch of N calls) into a layer.
type layerSpan struct {
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	N     int           `json:"calls"`
}

// layerBench collects the replays' spans and metrics.
type layerBench struct {
	cfg     config
	spans   []layerSpan
	metrics map[string]float64
}

// span times fn, which makes n calls into a layer, and records it.
func (b *layerBench) span(name string, n int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	b.spans = append(b.spans, layerSpan{Name: name, Start: start, Dur: d, N: n})
	return d
}

// repBudget bounds the wall time one input's repetitions may take.
const repBudget = 150 * time.Millisecond

// maxReps is the most repetitions one input gets.
const maxReps = 20

// perCall runs one(), which returns the duration of one call, up to
// maxReps times within repBudget (at least 3) and returns the median.
func (b *layerBench) perCall(one func() time.Duration) time.Duration {
	reps := scaled(maxReps, b.cfg.scale)
	if reps < 3 {
		reps = 3
	}
	start := time.Now()
	var ds []float64
	for i := 0; i < reps && (i < 3 || time.Since(start) < repBudget); i++ {
		ds = append(ds, float64(one()))
	}
	return time.Duration(median(ds))
}

// call is perCall for a function that needs no untimed preparation;
// batch > 1 times that many calls under one span, for nanosecond-scale
// operations.
func (b *layerBench) call(name string, batch int, fn func()) time.Duration {
	return b.perCall(func() time.Duration {
		return b.span(name, batch, func() {
			for i := 0; i < batch; i++ {
				fn()
			}
		}) / time.Duration(batch)
	})
}

func (b *layerBench) set(name string, v float64) { b.metrics[name] = v }

// compiled is one lab's reference, compiled once for the replays.
type compiled struct {
	lab      *labs.Lab
	prog     *minicuda.Program
	outcomes []*labs.Outcome
}

// runLayers replays every layer and returns the per-layer metrics that do
// not come from the HTTP windows.
func runLayers(cfg config) (*layerBench, error) {
	b := &layerBench{cfg: cfg, metrics: map[string]float64{}}
	var refs []*compiled
	for _, l := range labs.All() {
		prog, err := minicuda.Compile(l.Reference, l.Dialect)
		if err != nil {
			return nil, fmt.Errorf("reference of %s: %w", l.ID, err)
		}
		refs = append(refs, &compiled{lab: l, prog: prog})
	}
	steps := []func([]*compiled) error{
		b.compiler, b.engine, b.analyzer, b.workerNode, b.caches, b.smallLayers, b.devSession,
	}
	for _, step := range steps {
		if err := step(refs); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// compiler times the minicuda front end, lowering, codec and hasher.
func (b *layerBench) compiler(refs []*compiled) error {
	var lex, parse, sema, lower, comp, enc, dec, hash []float64
	var allocs, instrs, bytes float64
	for _, c := range refs {
		src, d := c.lab.Reference, c.lab.Dialect
		pp, err := minicuda.Preprocess(src)
		if err != nil {
			return err
		}
		tLex := b.call("minicuda.lex", 1, func() { _, _ = minicuda.Lex(pp) })
		tParse := b.call("minicuda.parse", 1, func() { _, _ = minicuda.Parse(src, d) })
		tSema := b.perCall(func() time.Duration {
			prog, _ := minicuda.Parse(src, d) // a reference parses, or Compile above had failed
			return b.span("minicuda.sema", 1, func() { _ = minicuda.Analyze(prog) })
		})
		tComp := b.call("minicuda.compile", 1, func() { _, _ = minicuda.Compile(src, d) })
		data, err := minicuda.EncodeProgram(c.prog)
		if err != nil {
			return fmt.Errorf("encode %s: %w", c.lab.ID, err)
		}
		if _, err := minicuda.DecodeProgram(data); err != nil {
			return fmt.Errorf("decode %s: %w", c.lab.ID, err)
		}
		tEnc := b.call("minicuda.encode", 1, func() { _, _ = minicuda.EncodeProgram(c.prog) })
		tDec := b.call("minicuda.decode", 1, func() { _, _ = minicuda.DecodeProgram(data) })
		tHash := b.call("minicuda.hash", 1, func() {
			_ = c.prog.PreludeHash()
			for _, f := range c.prog.Funcs {
				_ = f.StructuralHash()
			}
		})
		// Lowering has no entry point of its own: it is what Compile
		// does beyond Parse and Analyze.
		tLower := tComp - tParse - tSema
		if tLower < time.Microsecond {
			tLower = time.Microsecond
		}
		lex, parse, sema = append(lex, us(tLex)), append(parse, us(tParse)), append(sema, us(tSema))
		lower, comp = append(lower, us(tLower)), append(comp, us(tComp))
		enc, dec, hash = append(enc, us(tEnc)), append(dec, us(tDec)), append(hash, us(tHash))
		allocs += mallocsOf(func() { _, _ = minicuda.Compile(src, d) })
		instrs += float64(c.prog.InstructionCount())
		bytes += float64(len(data))
	}
	b.set("minicuda.lex_us", geomean(lex))
	b.set("minicuda.parse_us", geomean(parse))
	b.set("minicuda.sema_us", geomean(sema))
	b.set("minicuda.lower_us", geomean(lower))
	b.set("minicuda.compile_us", geomean(comp))
	b.set("minicuda.encode_us", geomean(enc))
	b.set("minicuda.decode_us", geomean(dec))
	b.set("minicuda.hash_us", geomean(hash))
	b.set("minicuda.compile_allocs", allocs)
	b.set("minicuda.instrs", instrs)
	b.set("minicuda.artifact_bytes", bytes)
	return nil
}

// mallocsOf counts the heap objects fn allocates: the least of three
// runs, so a background allocation does not inflate it.
func mallocsOf(fn func()) float64 {
	var ms runtime.MemStats
	best := -1.0
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		fn()
		runtime.ReadMemStats(&ms)
		if n := float64(ms.Mallocs - before); best < 0 || n < best {
			best = n
		}
	}
	return best
}

// simOps is the work a launch simulated, in operations.
func simOps(s *gpusim.LaunchStats) int64 {
	return s.ALUOps + s.SpecialOps + s.Branches + s.GlobalLoads + s.GlobalStores +
		s.SharedOps + s.Atomics + s.ConstLoads
}

// engine runs every lab's reference against all its datasets on the
// default engine, checking each verdict, and times the gpusim primitives.
func (b *layerBench) engine(refs []*compiled) error {
	maxSteps := sandbox.DefaultLimits().MaxSteps
	ctx := context.Background()
	var wall time.Duration
	var ops, opsOnce, cyclesOnce int64
	for _, c := range refs {
		gpus := c.lab.NumGPUs
		if gpus < 2 {
			gpus = 2 // a worker's container holds 2 GPUs in every workload
		}
		first := true
		var runErr error
		t := b.perCall(func() time.Duration {
			devs := labs.NewDeviceSet(gpus) // fresh, so Launches() below is this run's alone
			var outs []*labs.Outcome
			dur := b.span("labs.runall."+c.lab.ID, 1, func() {
				outs = labs.RunAllCompiled(ctx, c.lab, c.prog, devs, maxSteps)
			})
			for _, o := range outs {
				if !o.Correct && runErr == nil {
					runErr = fmt.Errorf("replay of %s dataset %d: not correct: %s%s",
						c.lab.ID, o.DatasetID, o.RuntimeError, o.CheckMessage)
				}
			}
			c.outcomes = outs
			for _, d := range devs {
				for _, s := range d.Launches() {
					wall += s.WallTime
					ops += simOps(s)
					if first {
						opsOnce += simOps(s)
						cyclesOnce += s.SimCycles
					}
				}
			}
			first = false
			return dur
		})
		if runErr != nil {
			return runErr
		}
		b.set("labs.runall_ms."+c.lab.ID, ms(t))
	}
	b.set("minicuda.exec_ns_per_op", float64(wall)/float64(ops))
	b.set("gpusim.sim_ops", float64(opsOnce))
	b.set("gpusim.sim_cycles", float64(cyclesOnce))

	b.set("labs.dataset_gen_ms", ms(b.call("labs.dataset_gen", 1, func() {
		for _, c := range refs {
			for i := 0; i < c.lab.NumDatasets; i++ {
				_, _ = c.lab.Generate(i)
			}
		}
	})))

	empty, err := minicuda.Compile("__global__ void k() {}\n", minicuda.DialectCUDA)
	if err != nil {
		return err
	}
	dev := gpusim.NewDefaultDevice()
	opts := minicuda.LaunchOpts{Grid: gpusim.D1(1), Block: gpusim.D1(32)}
	if _, err := empty.Launch(dev, "k", opts); err != nil {
		return fmt.Errorf("empty kernel: %w", err)
	}
	b.set("gpusim.launch_overhead_us", us(b.call("gpusim.launch_empty", 10, func() {
		_, _ = empty.Launch(dev, "k", opts)
	})))

	const mib = 1 << 20
	buf := make([]byte, mib)
	p, err := dev.Malloc(mib)
	if err != nil {
		return err
	}
	t := b.call("gpusim.memcpy", 1, func() {
		_ = dev.MemcpyHtoD(p, buf)
		_ = dev.MemcpyDtoH(buf, p)
	})
	b.set("gpusim.memcpy_mb_s", 2/t.Seconds())
	return nil
}

// analyzer times kernelcheck whole-program and incrementally.
func (b *layerBench) analyzer(refs []*compiled) error {
	var all []float64
	for _, c := range refs {
		all = append(all, us(b.call("kernelcheck.analyze", 1, func() { _ = kernelcheck.Analyze(c.prog) })))
	}
	b.set("kernelcheck.analyze_us", geomean(all))
	sort.Float64s(all)
	b.set("kernelcheck.analyze_max_us", all[len(all)-1])

	// The interactive student's edit: one function of three changes. The
	// drafts are compiled up front, one to prime the engine and one per
	// repetition, so that only the analysis is timed.
	l := labs.ByID(interactiveLab)
	drafts := draftGen(b.cfg.seed)
	progs := make([]*minicuda.Program, 1+maxReps)
	for i := range progs {
		prog, err := minicuda.Compile(drafts(), l.Dialect)
		if err != nil {
			return fmt.Errorf("draft: %w", err)
		}
		progs[i] = prog
	}
	inc := kernelcheck.NewIncremental()
	inc.Analyze(progs[0])
	var analyzed, reused int
	rep := 0
	t := b.perCall(func() time.Duration {
		rep++
		return b.span("kernelcheck.incremental", 1, func() {
			res := inc.Analyze(progs[rep])
			analyzed += res.Analyzed
			reused += res.Reused
		})
	})
	b.set("kernelcheck.incremental_us", us(t))
	b.set("kernelcheck.reuse_ratio", float64(reused)/float64(analyzed+reused))
	return nil
}

// workerNode replays submit jobs of the HPP references straight into a
// worker node, and times the job and result codecs.
func (b *layerBench) workerNode(refs []*compiled) error {
	cfg := worker.DefaultNodeConfig("bench-node")
	cfg.GPUs = 2
	cfg.ProgCache = progcache.New(progcache.DefaultCapacity, nil)
	node := worker.NewNode(cfg)
	ctx := context.Background()
	var exec, codec []float64
	for _, c := range refs {
		if !c.lab.UsedBy(labs.CourseHPP) {
			continue
		}
		job := &worker.Job{ID: "bench-" + c.lab.ID, LabID: c.lab.ID, UserID: "bench",
			Source: c.lab.Reference, DatasetID: worker.DatasetAll, Requirements: c.lab.Requirements}
		res := node.Execute(ctx, job) // warms the node's cache, as warm-mix's set-up does
		if !res.Correct() {
			return fmt.Errorf("worker replay of %s: not correct: %s", c.lab.ID, res.Error)
		}
		exec = append(exec, ms(b.call("worker.execute", 1, func() { _ = node.Execute(ctx, job) })))
		codec = append(codec, us(b.call("worker.codec", 1, func() {
			_, _ = worker.DecodeJob(worker.EncodeJob(job))
			_, _ = worker.DecodeResult(worker.EncodeResult(res))
		})))
	}
	// warm-mix draws its labs uniformly, so the plain mean is its expectation.
	b.set("worker.execute_ms", mean(exec))
	b.set("worker.codec_us", mean(codec))
	return nil
}

// caches times the program cache's three outcomes and the artifact store.
func (b *layerBench) caches(refs []*compiled) error {
	l := labs.ByID("vector-add")
	n := 0
	unique := func() string { n++; return variant(l, 999_999, n) }

	mem := progcache.New(progcache.DefaultCapacity, nil)
	if _, err := mem.Compile(l.Reference, l.Dialect); err != nil {
		return err
	}
	b.set("progcache.hit_ns", float64(b.call("progcache.hit", 1000, func() {
		_, _ = mem.Compile(l.Reference, l.Dialect)
	})))
	b.set("progcache.miss_us", us(b.perCall(func() time.Duration {
		src := unique()
		return b.span("progcache.miss", 1, func() { _, _ = mem.Compile(src, l.Dialect) })
	})))

	dir, err := storeDir(b.cfg.outDir, "layers")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	entries := scaled(512, b.cfg.scale)
	store, err := castore.Open(dir, castore.Options{})
	if err != nil {
		return err
	}
	warm := progcache.New(progcache.DefaultCapacity, nil)
	warm.SetStore(store)
	srcs := make([]string, entries)
	for i := range srcs {
		srcs[i] = unique()
		if _, err := warm.Compile(srcs[i], l.Dialect); err != nil {
			return err
		}
	}
	payload, _ := store.Get(progcache.Key(srcs[0], l.Dialect), progcache.ProgBlob)
	if len(payload) == 0 {
		return fmt.Errorf("castore: the program just compiled is not in the store")
	}
	key := func(i int) string {
		h := sha256.Sum256([]byte(fmt.Sprint("bench-key-", i)))
		return hex.EncodeToString(h[:])
	}
	puts := 0
	var putErr error
	b.set("castore.put_us", us(b.perCall(func() time.Duration {
		puts++
		return b.span("castore.put", 1, func() {
			if err := store.Put(key(puts), progcache.ProgBlob, payload); err != nil && putErr == nil {
				putErr = err
			}
		})
	})))
	if putErr != nil {
		return fmt.Errorf("castore put: %w", putErr)
	}
	gets := 0
	b.set("castore.get_us", us(b.perCall(func() time.Duration {
		gets = gets%puts + 1
		return b.span("castore.get", 1, func() { _, _ = store.Get(key(gets), progcache.ProgBlob) })
	})))
	if err := store.Close(); err != nil {
		return err
	}

	var reopened *castore.Store
	var openErr error
	b.set("castore.open_ms", ms(b.perCall(func() time.Duration {
		if reopened != nil {
			reopened.Close()
		}
		return b.span("castore.open", 1, func() { reopened, openErr = castore.Open(dir, castore.Options{}) })
	})))
	if openErr != nil {
		return fmt.Errorf("castore reopen: %w", openErr)
	}
	defer reopened.Close()
	cold := progcache.New(progcache.DefaultCapacity, nil)
	cold.SetStore(reopened)
	i := 0
	b.set("progcache.disk_hit_us", us(b.perCall(func() time.Duration {
		src := srcs[i%len(srcs)]
		i++
		return b.span("progcache.disk_hit", 1, func() { _, _ = cold.Compile(src, l.Dialect) })
	})))
	if st := cold.Stats(); st.Compiles != 0 || st.DiskHits == 0 {
		return fmt.Errorf("progcache disk-hit replay compiled %d sources, %d disk hits", st.Compiles, st.DiskHits)
	}
	return nil
}

// smallLayers times the layers whose single operations are micro- or
// nanoseconds: admission, broker hop, scanner, grader, db, trace, metrics.
func (b *layerBench) smallLayers(refs []*compiled) error {
	ctrl := overload.New(overload.Config{})
	ctx := context.Background()
	b.set("overload.admit_ns", float64(b.call("overload.admit", 1000, func() {
		if t, err := ctrl.Admit(ctx, overload.ClassSubmission, "user:bench", "course:HPP"); err == nil {
			t.Release()
		}
	})))

	payload := worker.EncodeJob(&worker.Job{ID: "hop", LabID: "vector-add", Source: labs.ByID("vector-add").Reference})
	caps := map[string]bool{"cuda": true}
	hop := func(br *queue.Broker) func() {
		return func() {
			_, _ = br.Publish(worker.TopicJobs, payload, "cuda")
			if d, ok, _ := br.Poll(worker.TopicJobs, "bench", caps, time.Minute); ok {
				_ = d.Ack()
			}
		}
	}
	idle := queue.NewBroker()
	defer idle.Close()
	b.set("queue.hop_us", us(b.call("queue.hop", 100, hop(idle))))
	busy := queue.NewBroker()
	defer busy.Close()
	for i := 0; i < scaled(1000, b.cfg.scale); i++ {
		_, _ = busy.Publish(worker.TopicJobs, payload, "cuda")
	}
	b.set("queue.hop_backlog_us", us(b.call("queue.hop_backlog", 100, hop(busy))))

	scanner := sandbox.NewScanner(nil, sandbox.ScanRaw)
	var scan, score []float64
	for _, c := range refs {
		scan = append(scan, us(b.call("sandbox.scan", 10, func() { _ = scanner.Check(c.lab.Reference) })))
		score = append(score, us(b.call("grader.score", 10, func() {
			_ = grader.Score(c.lab, c.lab.Reference, c.outcomes, len(c.lab.Questions))
		})))
	}
	b.set("sandbox.scan_us", geomean(scan))
	b.set("grader.score_us", geomean(score))

	type row struct {
		User string `json:"user"`
		Lab  string `json:"lab"`
		Src  string `json:"src"`
	}
	rec := row{User: "user-000001", Lab: "vector-add", Src: labs.ByID("vector-add").Reference}
	d := db.New()
	defer d.Close()
	rows := scaled(10_000, b.cfg.scale)
	for i := 0; i < rows; i++ {
		if err := d.Update(func(tx *db.Tx) error { return tx.Put("history", fmt.Sprintf("k%08d", i), rec) }); err != nil {
			return err
		}
	}
	n := 0
	twoPuts := func(tx *db.Tx) error {
		n++
		if err := tx.Put("submissions", fmt.Sprintf("s%08d", n), rec); err != nil {
			return err
		}
		return tx.Put("grades", "user-000001|vector-add", rec)
	}
	b.set("db.update_us", us(b.call("db.update", 10, func() { _ = d.Update(twoPuts) })))
	var out row
	b.set("db.get_us", us(b.call("db.get", 10, func() {
		_ = d.View(func(tx *db.Tx) error { return tx.Get("history", "k00000000", &out) })
	})))
	b.set("db.keys_us", us(b.call("db.keys", 1, func() {
		_ = d.View(func(tx *db.Tx) error { _ = tx.Keys("history"); return nil })
	})))
	logged := db.New()
	defer logged.Close()
	logged.AttachWAL(db.NewWAL(io.Discard))
	b.set("db.wal_append_us", us(b.call("db.wal_append", 10, func() { _ = logged.Update(twoPuts) })))

	tr := trace.New("bench")
	b.set("trace.span_ns", float64(b.call("trace.span", 1000, func() { tr.StartSpan("stage").End() })))
	reg := metrics.NewRegistry()
	b.set("metrics.observe_ns", float64(b.call("metrics.observe", 1000, func() {
		reg.ObserveDuration("stage_ms", time.Millisecond)
	})))
	return nil
}

// devSession times one draft through a live session with its debounce
// and rate limit off: a re-push of cached source, and a one-kernel edit.
func (b *layerBench) devSession([]*compiled) error {
	l := labs.ByID(interactiveLab)
	m := devsession.NewManager(devsession.Config{Debounce: -1, DraftBurst: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, err := m.Open("bench", l.ID, l.Dialect)
	if err != nil {
		return err
	}
	_, ch, unsub, err := s.Subscribe(0)
	if err != nil {
		return err
	}
	defer unsub()
	var pushErr error
	fail := func(err error) {
		if pushErr == nil {
			pushErr = err
		}
	}
	push := func(src string) {
		seq, _, err := s.PushDraft(src)
		if err != nil {
			fail(err)
			return
		}
		timeout := time.After(10 * time.Second)
		for {
			select {
			case ev, open := <-ch:
				if !open {
					fail(fmt.Errorf("devsession: event channel closed"))
					return
				}
				if dp, ok := ev.Data.(devsession.DiagnosticsPayload); ok && dp.Draft == seq {
					return
				}
			case <-timeout:
				fail(fmt.Errorf("devsession: no diagnostics for draft %d", seq))
				return
			}
		}
	}
	drafts := draftGen(b.cfg.seed + 1)
	warm := drafts()
	push(warm)
	b.set("devsession.warm_draft_us", us(b.call("devsession.warm_draft", 1, func() { push(warm) })))
	b.set("devsession.edit_draft_us", us(b.perCall(func() time.Duration {
		src := drafts()
		return b.span("devsession.edit_draft", 1, func() { push(src) })
	})))
	return pushErr
}
