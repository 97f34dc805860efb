package worker

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/metrics"
	"webgpu/internal/minicuda"
	"webgpu/internal/progcache"
	"webgpu/internal/sandbox"
	"webgpu/internal/trace"
)

// Node is a worker's execution core: it owns the GPUs, the container
// pool, the security scanner, the program cache, and the per-job
// pipeline.
type Node struct {
	ID      string
	GPUs    int
	Tags    map[string]bool
	pool    *Pool
	scanner *sandbox.Scanner
	limits  sandbox.Limits
	metrics *metrics.Registry
	progs   *progcache.Cache
	faults  *faultinject.Registry

	// Per-container admission: each pooled container owns its own
	// simulated device set, so up to cap(sem) jobs execute concurrently —
	// a node with k pooled containers runs k jobs at once instead of
	// serializing behind a node-wide mutex.
	sem chan struct{}

	// at, set by tests only, is called as a job reaches a point of its
	// pipeline: "analysis" as the kernelcheck stage starts analyzing,
	// "analyzed" as it ends, "exec" as the datasets are dispatched. It
	// may block, holding that stage back.
	at func(point string)
}

// NodeConfig configures a worker node.
type NodeConfig struct {
	ID       string
	GPUs     int // simulated GPUs per container
	Images   []Image
	PerImage int // warm containers per image
	Tags     []string
	Limits   sandbox.Limits

	// ProgCache is the compiled-program cache the node's pipeline uses;
	// nil uses the process-wide progcache.Default.
	ProgCache *progcache.Cache

	// Metrics is the registry the node reports into; nil creates a
	// private one. The platform passes its shared registry so every
	// node's counters land in one /api/v1/admin/metrics dump.
	Metrics *metrics.Registry

	// Faults is the fault-injection registry for chaos testing; nil (the
	// default) makes every fault point a no-op.
	Faults *faultinject.Registry
}

// DefaultNodeConfig returns a single-GPU CUDA worker configuration.
func DefaultNodeConfig(id string) NodeConfig {
	return NodeConfig{
		ID:       id,
		GPUs:     1,
		Images:   DefaultImages(),
		PerImage: 2,
		Tags:     []string{"cuda", "opencl"},
		Limits:   sandbox.DefaultLimits(),
	}
}

// NewNode builds a node from its configuration.
func NewNode(cfg NodeConfig) *Node {
	gpus := cfg.GPUs
	if gpus <= 0 {
		gpus = 1
	}
	tags := map[string]bool{}
	for _, t := range cfg.Tags {
		tags[t] = true
	}
	if gpus > 1 {
		tags[labs.ReqMultiGPU] = true
	}
	// PerImage 0 defaults to one warm container; a negative value means
	// "no warm pool" (every acquisition is a cold start — the Figure 7
	// ablation).
	perImage := cfg.PerImage
	if perImage == 0 {
		perImage = 1
	}
	if perImage < 0 {
		perImage = 0
	}
	images := cfg.Images
	if images == nil {
		images = DefaultImages()
	}
	// A node advertises "mpi" when one of its images carries the MPI
	// toolchain.
	for _, img := range images {
		if img.Toolchains["mpi"] {
			tags["mpi"] = true
		}
	}
	limits := cfg.Limits
	if limits.MaxSteps == 0 {
		limits = sandbox.DefaultLimits()
	}
	// Admission is the warm-pool capacity (PerImage × images, min 1): the
	// paper's container-pool unit of worker concurrency.
	pool := NewPool(images, gpus, perImage)
	progs := cfg.ProgCache
	if progs == nil {
		progs = progcache.Default
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	// Pre-register every kernelcheck rule's fire counter at zero so the
	// admin metrics dump carries the full series set from node start
	// instead of rules popping into existence at their first finding.
	for _, r := range kernelcheck.Rules() {
		reg.Inc(kernelcheck.MetricName(r.ID), 0)
	}
	return &Node{
		ID:      cfg.ID,
		GPUs:    gpus,
		Tags:    tags,
		pool:    pool,
		scanner: sandbox.NewScanner(nil, sandbox.ScanRaw),
		limits:  limits,
		metrics: reg,
		progs:   progs,
		faults:  cfg.Faults,
		sem:     make(chan struct{}, max(pool.Capacity(), 1)),
	}
}

// Capabilities returns the node's tag set (for broker polling).
func (n *Node) Capabilities() map[string]bool {
	caps := map[string]bool{}
	for t := range n.Tags {
		caps[t] = true
	}
	return caps
}

// Metrics exposes the node's registry (health dashboard).
func (n *Node) Metrics() *metrics.Registry { return n.metrics }

// Pool exposes the container pool (tests and the dashboard).
func (n *Node) Pool() *Pool { return n.pool }

// Execute runs one job through the full pipeline: admission, security
// scan, image selection, container acquisition, cached compile, run,
// container teardown. Result.QueueWait carries the time the job spent
// blocked on admission (a loaded node queues jobs at its semaphore).
//
// The context carries both cancellation (a done ctx aborts admission
// waits, compile waits, and the per-dataset fan-out) and the job's trace,
// which the caller owns: the driver's, or an in-process caller's. An
// untraced job records no spans.
func (n *Node) Execute(ctx context.Context, job *Job) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{JobID: job.ID, WorkerID: n.ID, TraceID: job.TraceID}
	tr := trace.FromContext(ctx)
	if res.TraceID == "" {
		res.TraceID = tr.ID()
	}

	adm := tr.Stage(n.metrics, "stage_admission_ms", "admission", "worker", n.ID)
	if done := ctx.Done(); done == nil {
		n.sem <- struct{}{} // uncancellable ctx: skip the select fast path
	} else {
		select {
		case n.sem <- struct{}{}:
		case <-done:
			res.QueueWait = adm.Abandon("canceled", "true")
			res.Canceled = true
			res.Error = "worker: " + ctx.Err().Error()
			res.CompletedAt = time.Now()
			n.metrics.Inc("jobs_canceled", 1)
			return res
		}
	}
	defer func() { <-n.sem }()
	res.QueueWait = adm.End()

	start := time.Now()
	defer func() {
		res.ExecDuration = time.Since(start)
		res.CompletedAt = time.Now()
		n.metrics.Inc("jobs_total", 1)
		n.metrics.ObserveDuration("job_exec_ms", res.ExecDuration)
	}()

	lab := labs.ByID(job.LabID)
	if lab == nil {
		res.Error = fmt.Sprintf("worker: unknown lab %q", job.LabID)
		n.metrics.Inc("jobs_unknown_lab", 1)
		return res
	}

	// Compile-time blacklist (§III-D).
	scan := tr.StartSpan("scan")
	err := n.scanner.Check(job.Source)
	scan.End("rejected", strconv.FormatBool(err != nil))
	if err != nil {
		res.Rejected = true
		res.Error = err.Error()
		n.metrics.Inc("jobs_rejected", 1)
		return res
	}

	// Reject out-of-range datasets before any compile work is spent.
	if job.DatasetID != DatasetAll && job.DatasetID != DatasetCompileOnly &&
		(job.DatasetID < 0 || job.DatasetID >= lab.NumDatasets) {
		res.Outcomes = []*labs.Outcome{{LabID: lab.ID, DatasetID: job.DatasetID,
			RuntimeError: fmt.Sprintf("labs: dataset %d out of range [0,%d)", job.DatasetID, lab.NumDatasets)}}
		n.metrics.Inc("outcomes_incorrect", 1)
		return res
	}

	// Toolchain-based image selection (§VI-B).
	toolchains := []string{"cuda"}
	switch lab.Dialect.String() {
	case "OpenCL":
		toolchains = []string{"opencl"}
	case "OpenACC":
		toolchains = []string{"openacc"}
	}
	for _, r := range lab.Requirements {
		if r == labs.ReqMPI {
			toolchains = append(toolchains, "mpi")
		}
	}
	image, err := n.pool.SelectImage(toolchains)
	if err != nil {
		res.Error = err.Error()
		n.metrics.Inc("jobs_no_image", 1)
		return res
	}
	res.Image = image
	ctr, err := n.pool.Acquire(image)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	defer n.pool.Release(ctr)

	// Transient compile-infrastructure failure (chaos testing): the
	// submission is fine, the worker is not — report it retryable.
	if ferr := n.faults.Fire(faultinject.PointNodeCompile); ferr != nil {
		res.Error = ferr.Error()
		res.Transient = true
		n.metrics.Inc("jobs_faulted", 1)
		return res
	}

	// Compile exactly once per job through the content-addressed program
	// cache — identical sources across jobs compile once per process. A
	// compile-only job asks for the verdict alone, so its entry need not
	// keep a program nothing will run.
	cs := tr.Stage(n.metrics, "stage_compile_ms", "compile")
	prog, status, cerr := n.compileSubmission(ctx, job.Source, lab.Dialect, job.DatasetID == DatasetCompileOnly)
	compileWall := cs.End("cache", status.String(), "ok", strconv.FormatBool(cerr == nil))
	switch status {
	case progcache.Hit:
		n.metrics.Inc("progcache_hits", 1)
	case progcache.Coalesced:
		n.metrics.Inc("progcache_coalesced", 1)
	default:
		n.metrics.Inc("progcache_misses", 1)
	}

	// Static kernel analysis (kernelcheck). Diagnostics are a derived
	// artifact cached on the program-cache entry, so repeat submissions
	// skip re-analysis the same way they skip re-compilation. Under
	// fail-fast the analyzer gates execution, so it runs inline; under the
	// default warn policy the findings only ride the result, so the
	// analysis overlaps dataset execution instead of extending the job's
	// critical path (both only read the compiled program).
	joinAnalysis := func() {}
	if cerr == nil && job.AnalysisPolicy != AnalysisOff {
		kc := tr.Stage(n.metrics, "stage_kernelcheck_ms", "kernelcheck", "policy", analysisPolicyName(job.AnalysisPolicy))
		var diags []kernelcheck.Diagnostic
		var kcWall time.Duration
		analyze := func() {
			n.reach("analysis")
			defer n.reach("analyzed")
			kres, err := n.progs.Diagnostics(job.Source, lab.Dialect)
			if err != nil {
				kres = kernelcheck.Result{} // an analysis that failed has no findings
			}
			diags = kres.Diagnostics
			kcWall = kc.End("findings", strconv.Itoa(len(diags)), "errors", strconv.Itoa(kernelcheck.ErrorCount(diags)),
				"analyzed", strconv.Itoa(kres.Analyzed), "reused", strconv.Itoa(kres.Reused))
		}
		finish := func() {
			res.Diagnostics = diags
			for _, dg := range diags {
				n.metrics.Inc(kernelcheck.MetricName(dg.ID), 1)
			}
		}
		if job.AnalysisPolicy == AnalysisFailFast {
			analyze()
			finish()
			if kernelcheck.ErrorCount(res.Diagnostics) > 0 {
				res.AnalysisBlocked = true
				res.Outcomes = analysisBlockedOutcomes(lab, job.DatasetID, res.Diagnostics, kcWall)
				n.metrics.Inc("jobs_analysis_blocked", 1)
				n.metrics.Inc("outcomes_incorrect", float64(len(res.Outcomes)))
				return res
			}
		} else {
			done := make(chan struct{})
			go func() {
				defer close(done)
				analyze()
			}()
			joinAnalysis = func() {
				<-done
				finish()
			}
		}
	}

	// Transient execution-infrastructure failure (chaos testing).
	if ferr := n.faults.Fire(faultinject.PointNodeExec); ferr != nil {
		joinAnalysis()
		res.Error = ferr.Error()
		res.Transient = true
		n.metrics.Inc("jobs_faulted", 1)
		return res
	}

	// The datasets run side by side from one start; the stage has a span
	// per dataset and no span of its own.
	ex := tr.Stage(n.metrics, "stage_exec_ms", "")
	n.reach("exec")
	switch {
	case cerr != nil:
		res.Outcomes = compileErrorOutcomes(lab, job.DatasetID, cerr, compileWall)
	case job.DatasetID == DatasetCompileOnly:
		res.Outcomes = []*labs.Outcome{{LabID: lab.ID, DatasetID: -1,
			Compiled: true, WallTime: compileWall}}
	case job.DatasetID == DatasetAll:
		res.Outcomes = labs.RunAllCompiled(ctx, lab, prog, ctr.Devices, n.limits.MaxSteps)
	default:
		res.Outcomes = []*labs.Outcome{labs.RunCompiled(ctx, lab, prog, job.DatasetID, ctr.Devices, n.limits.MaxSteps)}
	}
	ex.End()
	joinAnalysis()
	// How large the lowered artifact the kernels ran was. Asked only when
	// a kernel ran, since the count lowers a program no launch has.
	instrs := ""
	for _, o := range res.Outcomes {
		if o.Ran && prog != nil {
			instrs = strconv.Itoa(prog.InstructionCount())
			break
		}
	}
	spent := 0 // the result's outcomes share one output budget
	for _, o := range res.Outcomes {
		o.Trace = n.limits.ClampOutput(o.Trace, spent)
		spent += len(o.Trace)
		if o.Ran || o.Canceled {
			ex.Part(fmt.Sprintf("exec[dataset=%d]", o.DatasetID), o.WallTime,
				"correct", strconv.FormatBool(o.Correct), "canceled", strconv.FormatBool(o.Canceled),
				"sim_time", o.SimTime.String(), "instructions", instrs)
		}
		switch {
		case o.Canceled:
			res.Canceled = true
			n.metrics.Inc("outcomes_canceled", 1)
		case o.Correct:
			n.metrics.Inc("outcomes_correct", 1)
		default:
			n.metrics.Inc("outcomes_incorrect", 1)
		}
	}
	if res.Canceled {
		n.metrics.Inc("jobs_canceled", 1)
	}
	return res
}

// reach calls the test hook at the named point of a job, if one is set.
func (n *Node) reach(point string) {
	if n.at != nil {
		n.at(point)
	}
}

// compileSubmission compiles through the node's program cache, enforcing
// the sandbox.Limits.CompileTimeout (§III-C: "time limits are placed ...
// on the duration of the compilation"). A timed-out or cancelled compile
// is abandoned; it still completes in the background and populates the
// cache. With verdictOnly it asks the cache for the verdict alone
// (progcache.Check) and returns no program.
func (n *Node) compileSubmission(ctx context.Context, src string, dialect minicuda.Dialect, verdictOnly bool) (*minicuda.Program, progcache.Status, error) {
	compile := func() (*minicuda.Program, progcache.Status, error) {
		if verdictOnly {
			st, err := n.progs.Check(src, dialect)
			return nil, st, err
		}
		return n.progs.CompileStatus(src, dialect)
	}
	if n.limits.CompileTimeout <= 0 && ctx.Done() == nil {
		return compile()
	}
	type compiled struct {
		prog   *minicuda.Program
		status progcache.Status
		err    error
	}
	ch := make(chan compiled, 1)
	go func() {
		p, st, err := compile()
		ch <- compiled{p, st, err}
	}()
	var timeout <-chan time.Time
	if n.limits.CompileTimeout > 0 {
		timer := time.NewTimer(n.limits.CompileTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case c := <-ch:
		return c.prog, c.status, c.err
	case <-ctx.Done():
		return nil, progcache.Miss, fmt.Errorf("sandbox: compilation abandoned: %w", ctx.Err())
	case <-timeout:
		n.metrics.Inc("compile_timeouts", 1)
		return nil, progcache.Miss,
			fmt.Errorf("sandbox: compilation exceeded the %v limit", n.limits.CompileTimeout)
	}
}

// analysisPolicyName normalizes the job's policy for trace attributes.
func analysisPolicyName(p string) string {
	if p == "" {
		return AnalysisWarn
	}
	return p
}

// analysisBlockedOutcomes reports a fail-fast analysis block in the same
// per-dataset shape a grading run produces: the submission compiled, but
// every dataset is marked failed with the blocking diagnostics.
func analysisBlockedOutcomes(lab *labs.Lab, datasetID int, diags []kernelcheck.Diagnostic, wall time.Duration) []*labs.Outcome {
	var sb []string
	for _, d := range diags {
		if d.Severity == kernelcheck.SevError {
			sb = append(sb, d.String())
		}
	}
	msg := fmt.Sprintf("kernelcheck: execution blocked by the fail-fast analysis policy (%d provable error(s)):\n%s",
		len(sb), strings.Join(sb, "\n"))
	mk := func(id int) *labs.Outcome {
		return &labs.Outcome{LabID: lab.ID, DatasetID: id, Compiled: true,
			RuntimeError: msg, WallTime: wall}
	}
	if datasetID == DatasetAll {
		outs := make([]*labs.Outcome, lab.NumDatasets)
		for i := range outs {
			outs[i] = mk(i)
		}
		return outs
	}
	if datasetID == DatasetCompileOnly {
		return []*labs.Outcome{mk(-1)}
	}
	return []*labs.Outcome{mk(datasetID)}
}

// compileErrorOutcomes reports a compile failure in the same per-dataset
// shape a successful grading run produces.
func compileErrorOutcomes(lab *labs.Lab, datasetID int, cerr error, wall time.Duration) []*labs.Outcome {
	mk := func(id int) *labs.Outcome {
		return &labs.Outcome{LabID: lab.ID, DatasetID: id,
			CompileError: cerr.Error(), Fault: labs.FaultOf(cerr), WallTime: wall}
	}
	if datasetID == DatasetAll {
		outs := make([]*labs.Outcome, lab.NumDatasets)
		for i := range outs {
			outs[i] = mk(i)
		}
		return outs
	}
	if datasetID == DatasetCompileOnly {
		return []*labs.Outcome{mk(-1)}
	}
	return []*labs.Outcome{mk(datasetID)}
}

// CanServe reports whether the node satisfies every requirement of a job.
func (n *Node) CanServe(job *Job) bool {
	lab := labs.ByID(job.LabID)
	if lab == nil {
		return false
	}
	for _, r := range lab.Requirements {
		if !n.Tags[r] {
			return false
		}
	}
	if lab.NumGPUs > n.GPUs {
		return false
	}
	return true
}
