package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"webgpu/internal/castore"
	"webgpu/internal/grader"
	"webgpu/internal/labs"
	"webgpu/internal/platform"
	"webgpu/internal/progcache"
	"webgpu/internal/sandbox"
	"webgpu/internal/trace"
)

// config selects and sizes one run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks what does not already follow seconds — the database
	// fill and the layer replays' iteration counts — so the smoke tests
	// run every workload in a fraction of a second. 1 outside tests.
	scale  float64
	outDir string    // cache directories and trace files live here
	log    io.Writer // the human-readable report
}

// students is the closed-loop client count: one goroutine and one
// connection each, never more than the host has cores.
const students = 2

// run is one booted platform with its clients, ready to be measured.
type run struct {
	cfg      config
	p        *platform.Platform
	ts       *httptest.Server
	cacheDir string // "" unless the workload uses the durable store

	// job workloads
	clients []*client
	next    []func() (jobOp, bool)

	// interactive-mix
	reader   *client // request connection
	stream   *sseStream
	streamer *client // event-stream connection
	draftURL string
	drafts   func() string
	history  studentHistory
}

// bootPlatform starts the production composition behind a loopback
// listener: architecture v2, 2 workers of 2 GPUs, default admission
// control, and only the per-user submit interval shortened (through the
// public option, as internal/macrobench does) so that a closed loop is
// not throttled to one submit every ten seconds.
func (r *run) bootPlatform(cacheDir string) {
	lim := sandbox.DefaultLimits()
	lim.SubmitInterval = time.Microsecond
	r.p = platform.New(platform.Options{
		Arch:          platform.V2,
		Workers:       2,
		GPUsPerWorker: 2,
		Limits:        lim,
		CacheDir:      cacheDir,
	})
	r.ts = httptest.NewServer(r.p.Handler())
}

// storeDir creates a fresh, private directory for an artifact store:
// in memory (/dev/shm) where the host has one, else under outDir. On this
// host's shared disk the same 9 000-source populate took anywhere from
// 3.0 to 6.8 s within ten minutes, and compile-unique's throughput swung
// by a sixth; on tmpfs both repeat. It is the one thing a run writes
// outside its checkout, it holds only the store, and every exit path
// removes it.
func storeDir(outDir, name string) (string, error) {
	if dir, err := os.MkdirTemp("/dev/shm", "webgpu-bench-"+name+"-"); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "store-"+name+"-")
}

// close tears everything down: clients first, so no request is in flight
// when the platform stops.
func (r *run) close() {
	if r.stream != nil {
		r.stream.close()
	}
	for _, c := range append(r.clients, r.reader, r.streamer) {
		if c != nil {
			c.close()
		}
	}
	if r.ts != nil {
		r.ts.Close()
	}
	if r.p != nil {
		r.p.Close()
	}
	if r.cacheDir != "" {
		os.RemoveAll(r.cacheDir)
	}
}

// setup boots and prepares the workload up to the instant timing can start.
func setup(cfg config) (*run, error) {
	r := &run{cfg: cfg}
	var err error
	switch cfg.workload {
	case warmMix:
		err = r.setupWarmMix()
	case compileUnique:
		err = r.setupCompileUnique()
	case restartWarm:
		err = r.setupRestartWarm()
	case interactiveMix:
		err = r.setupInteractiveMix()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	return r, nil
}

// registerStudents creates the closed-loop clients.
func (r *run) registerStudents() error {
	for i := 0; i < students; i++ {
		c := newClient(r.ts.URL)
		r.clients = append(r.clients, c)
		if err := c.register(fmt.Sprintf("%s-student-%d", r.cfg.workload, i)); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) setupWarmMix() error {
	r.bootPlatform("")
	if err := r.registerStudents(); err != nil {
		return err
	}
	for i, c := range r.clients {
		for _, l := range hppLabs() {
			if err := c.answerAll(l); err != nil {
				return err
			}
		}
		r.next = append(r.next, warmMixGen(r.cfg.seed, i))
	}
	// One submit per lab compiles and analyzes each reference and
	// generates its datasets.
	for _, l := range hppLabs() {
		status, _, data, err := r.clients[0].do("POST", "/api/v1/labs/"+l.ID+"/submit", sourceBody(l.Reference))
		if err != nil {
			return err
		}
		if _, err := checkSubmit(l, status, data); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (r *run) setupCompileUnique() error {
	dir, err := storeDir(r.cfg.outDir, r.cfg.workload)
	if err != nil {
		return err
	}
	r.cacheDir = dir
	r.bootPlatform(dir)
	if err := r.registerStudents(); err != nil {
		return err
	}
	// The request list is frozen here, in set-up, so that the timed loop
	// only sends; like restart-warm's it is sized to outlast the window.
	for i := range r.clients {
		gen := compileUniqueGen(r.cfg.seed, i)
		ops := make([]jobOp, listLength(r.cfg.seconds)/students)
		for j := range ops {
			ops[j], _ = gen()
		}
		r.next = append(r.next, sliceGen(ops, 0, 1))
	}
	return nil
}

func (r *run) setupRestartWarm() error {
	dir, err := storeDir(r.cfg.outDir, r.cfg.workload)
	if err != nil {
		return err
	}
	r.cacheDir = dir
	ops := restartSources(r.cfg.seed, listLength(r.cfg.seconds))
	if err := populateStore(dir, ops); err != nil {
		return err
	}
	// The restart: a fresh platform on the populated directory, nothing
	// preloaded, so every compile below reads through to the store.
	r.bootPlatform(dir)
	if r.p.ArtifactStore() == nil {
		return fmt.Errorf("platform booted without the artifact store at %s", dir)
	}
	if err := r.registerStudents(); err != nil {
		return err
	}
	for i := range r.clients {
		r.next = append(r.next, sliceGen(ops, i, students))
	}
	return nil
}

// populateStore is what the platform's previous life left behind: every
// source compiled and analyzed through the public progcache+castore API,
// written through to dir, and the store closed.
func populateStore(dir string, ops []jobOp) error {
	store, err := castore.Open(dir, castore.Options{})
	if err != nil {
		return err
	}
	cache := progcache.New(progcache.DefaultCapacity, nil)
	cache.SetStore(store)
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += len(errs) {
				if _, err := cache.Diagnostics(ops[i].src, ops[i].lab.Dialect); err != nil {
					errs[w] = fmt.Errorf("populate %s: %w", ops[i].lab.ID, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			store.Close()
			return err
		}
	}
	if got := store.Stats().Objects; got != int64(2*len(ops)) {
		store.Close()
		return fmt.Errorf("store holds %d objects after populating %d sources, want %d", got, len(ops), 2*len(ops))
	}
	return store.Close()
}

// setupConcurrency is how many requests set-up keeps in flight while it
// fills the database. Set-up is not the measurement: more callers than
// cores only keep the two workers from idling between polls.
const setupConcurrency = 8

func (r *run) setupInteractiveMix() error {
	r.bootPlatform("")
	shared := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: setupConcurrency, MaxIdleConnsPerHost: setupConcurrency, DisableCompression: true}}
	defer shared.CloseIdleConnections()

	users := make([]*client, fillUsers)
	for i := range users {
		users[i] = &client{base: r.ts.URL, hc: shared}
		if err := users[i].register(fmt.Sprintf("fill-user-%02d", i)); err != nil {
			return err
		}
	}
	// Each user's requests stay on one worker, in order: two submissions
	// of one user in flight at once would trip the per-user rate limit.
	plan := fillPlan(r.cfg.seed, r.cfg.scale)
	fillBody := sourceBody(labs.ByID(fillLab).Reference)
	errs := make([]error, setupConcurrency)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, op := range plan {
				if op.user%setupConcurrency != w {
					continue
				}
				path := "/api/v1/labs/" + fillLab + "/submit"
				if op.attempt {
					path = "/api/v1/labs/" + fillLab + "/attempt?dataset=0"
				}
				if _, err := users[op.user].expect(http.StatusOK, "POST", path, fillBody); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("fill: %w", err)
		}
	}

	// The student: a known number of revisions and attempts, then one
	// full-marks submission of the lab they will be reading.
	l := labs.ByID(interactiveLab)
	r.reader = newClient(r.ts.URL)
	if err := r.reader.register("interactive-student"); err != nil {
		return err
	}
	if err := r.reader.answerAll(l); err != nil {
		return err
	}
	r.history = studentPlan(r.cfg.seed)
	base := "/api/v1/labs/" + l.ID
	for i := 0; i < r.history.saves; i++ {
		body := sourceBody(fmt.Sprintf("// save %d\n%s", i, l.Skeleton))
		if _, err := r.reader.expect(http.StatusOK, "POST", base+"/save", body); err != nil {
			return err
		}
	}
	for i := 0; i < r.history.attempts; i++ {
		path := fmt.Sprintf("%s/attempt?dataset=%d", base, i%l.NumDatasets)
		if _, err := r.reader.expect(http.StatusOK, "POST", path, sourceBody(l.Reference)); err != nil {
			return err
		}
	}
	status, _, data, err := r.reader.do("POST", base+"/submit", sourceBody(l.Reference))
	if err != nil {
		return err
	}
	if _, err := checkSubmit(l, status, data); err != nil {
		return err
	}

	// The live session: its event stream on the second connection, and
	// one untimed draft so the per-function analysis cache is primed.
	data, err = r.reader.expect(http.StatusCreated, "POST", base+"/session", nil)
	if err != nil {
		return err
	}
	var sess struct {
		EventsURL string `json:"events_url"`
		DraftURL  string `json:"draft_url"`
	}
	if err := json.Unmarshal(data, &sess); err != nil {
		return err
	}
	r.draftURL = sess.DraftURL
	r.streamer = newClient(r.ts.URL)
	r.streamer.token = r.reader.token
	if r.stream, err = openSSE(r.streamer, sess.EventsURL); err != nil {
		return err
	}
	r.drafts = draftGen(r.cfg.seed)
	if _, _, err := r.pushDraft(); err != nil {
		return fmt.Errorf("priming draft: %w", err)
	}
	return nil
}

// ---- Timed windows ------------------------------------------------------------

// jobTrace is one verified job of a traced window: the client's own span
// and the spans the program recorded under the response's trace id.
type jobTrace struct {
	ID    string        `json:"trace_id"`
	Lab   string        `json:"lab"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Spans []trace.Span  `json:"spans"`
}

// cycle is one verified interactive cycle: what the student waited for.
type cycle struct {
	Start      time.Time        `json:"start"`
	Feedback   time.Duration    `json:"draft_feedback_ns"` // draft POST sent → its diagnostics event read
	Reads      [4]time.Duration `json:"read_ns"`           // lab, history, attempts, grade
	AnalysisMS float64          `json:"analysis_ms"`       // the server's own figure, from the event
	Analyzed   int              `json:"analyzed"`
	Reused     int              `json:"reused"`
}

func (c cycle) total() time.Duration {
	d := c.Feedback
	for _, r := range c.Reads {
		d += r
	}
	return d
}

// readNames label cycle.Reads.
var readNames = [4]string{"lab", "history", "attempts", "grade"}

// window is what one timed window measured.
type window struct {
	attempted int
	failed    int
	shed      int // failures that were 429s
	errs      []error

	jobs      []time.Duration // verified turnarounds; one per job (or cycle)
	elapsed   time.Duration
	proc      procDelta
	simCycles int64
	exhausted bool // the request list ran out before the time did

	traces []jobTrace // traced job windows
	cycles []cycle    // interactive-mix
}

func (w *window) fail(err error, status int) {
	w.failed++
	if status == http.StatusTooManyRequests {
		w.shed++
	}
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err)
	}
}

func (w *window) merge(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.shed += o.shed
	w.errs = append(w.errs, o.errs...)
	w.jobs = append(w.jobs, o.jobs...)
	w.simCycles += o.simCycles
	w.exhausted = w.exhausted || o.exhausted
	w.traces = append(w.traces, o.traces...)
}

// measure runs one timed window of d; traced additionally joins each
// response's trace id to the spans the program recorded.
func (r *run) measure(d time.Duration, traced bool) *window {
	runtime.GC() // every window starts from a collected heap
	before := readProc()
	start := time.Now()

	var w *window
	if r.cfg.workload == interactiveMix {
		w = r.interactiveWindow(start.Add(d))
	} else {
		w = r.jobWindow(start.Add(d), traced)
	}
	w.elapsed = time.Since(start)
	w.proc = readProc().since(before)
	return w
}

// jobWindow drives the students' closed loops until the deadline: each
// sends its next click only after verifying the verdict of the last.
func (r *run) jobWindow(deadline time.Time, traced bool) *window {
	parts := make([]*window, len(r.clients))
	var wg sync.WaitGroup
	for i := range r.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = r.studentLoop(r.clients[i], r.next[i], deadline, traced)
		}(i)
	}
	wg.Wait()
	w := &window{}
	for _, p := range parts {
		w.merge(p)
	}
	return w
}

func (r *run) studentLoop(c *client, next func() (jobOp, bool), deadline time.Time, traced bool) *window {
	w := &window{}
	for time.Now().Before(deadline) {
		op, ok := next()
		if !ok {
			w.exhausted = true
			break
		}
		w.attempted++
		t0 := time.Now()
		status, hdr, data, err := c.do("POST", op.path, op.body)
		var cycles int64
		if err == nil {
			cycles, err = r.checkJob(op, status, data)
		}
		dur := time.Since(t0)
		if err != nil {
			w.fail(err, status)
			continue
		}
		w.jobs = append(w.jobs, dur)
		w.simCycles += cycles
		if traced {
			jt := jobTrace{ID: hdr.Get("X-WebGPU-Trace"), Lab: op.lab.ID, Start: t0, Dur: dur}
			jt.Spans = r.p.Traces().Get(jt.ID).Spans()
			w.traces = append(w.traces, jt)
		}
	}
	return w
}

// checkJob is the verdict oracle of the job workloads.
func (r *run) checkJob(op jobOp, status int, data []byte) (int64, error) {
	if r.cfg.workload != warmMix {
		return 0, checkCompile(op.lab, op.wantIdent, status, data)
	}
	return checkSubmit(op.lab, status, data)
}

// tick is the interactive student's think time: one cycle starts every
// tick, or at once if the last one overran.
const tick = 100 * time.Millisecond

// pushDraft posts the next generated draft and waits for its diagnostics
// event. It returns the draft's status code for shed accounting.
func (r *run) pushDraft() (cycle, int, error) {
	var c cycle
	body := sourceBody(r.drafts())
	c.Start = time.Now()
	status, _, data, err := r.reader.do("POST", r.draftURL, body)
	if err != nil {
		return c, status, err
	}
	if status != http.StatusAccepted {
		return c, status, fmt.Errorf("draft: status %d: %s", status, firstLine(data))
	}
	var acc struct {
		Draft int64 `json:"draft"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		return c, status, err
	}
	diag, err := r.stream.awaitDiagnostics(acc.Draft)
	c.Feedback = time.Since(c.Start)
	if err != nil {
		return c, status, err
	}
	c.AnalysisMS, c.Analyzed, c.Reused = diag.ElapsedMS, diag.Analyzed, diag.Reused
	return c, status, nil
}

// interactiveWindow runs the student's edit-and-look cycle on the tick.
func (r *run) interactiveWindow(deadline time.Time) *window {
	w := &window{}
	l := labs.ByID(interactiveLab)
	base := "/api/v1/labs/" + l.ID
	paths := [4]string{base, base + "/history", base + "/attempts", base + "/grade"}
	due := time.Now()
	for ; due.Before(deadline); due = due.Add(tick) {
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		} else {
			due = time.Now() // overran: no catching up, the student just continues
		}
		ok := true
		w.attempted++
		c, status, err := r.pushDraft()
		if err == nil && c.Reused == 0 {
			err = fmt.Errorf("draft reused no function's analysis (analyzed %d)", c.Analyzed)
		}
		if err != nil {
			w.fail(err, status)
			ok = false
		}
		for i, path := range paths {
			w.attempted++
			t0 := time.Now()
			status, _, data, err := r.reader.do("GET", path, nil)
			if err == nil {
				err = r.checkRead(l, i, status, data)
			}
			c.Reads[i] = time.Since(t0)
			if err != nil {
				w.fail(err, status)
				ok = false
			}
		}
		if ok {
			w.cycles = append(w.cycles, c)
			w.jobs = append(w.jobs, c.total())
		}
	}
	return w
}

// checkRead is the oracle of the four page reads, in readNames order.
func (r *run) checkRead(l *labs.Lab, i, status int, data []byte) error {
	switch readNames[i] {
	case "history":
		return checkTotal("history", r.history.revisions(), status, data)
	case "attempts":
		return checkTotal("attempts", r.history.attempts, status, data)
	case "grade":
		if status != http.StatusOK {
			return fmt.Errorf("grade: status %d: %s", status, firstLine(data))
		}
		var g grader.Grade
		if err := json.Unmarshal(data, &g); err != nil {
			return err
		}
		return checkFullMarks(l, &g)
	}
	if status != http.StatusOK {
		return fmt.Errorf("lab: status %d: %s", status, firstLine(data))
	}
	var page struct {
		ID   string `json:"id"`
		Code string `json:"code"`
	}
	if err := json.Unmarshal(data, &page); err != nil {
		return err
	}
	if page.ID != l.ID || page.Code != l.Reference {
		return fmt.Errorf("lab: page of %q does not carry the student's last saved source", page.ID)
	}
	return nil
}
