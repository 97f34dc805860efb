package worker

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
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

// Node is the execution core shared by the v1 (push) and v2 (poll)
// workers: it owns the GPUs, the container pool, the security scanner,
// the program cache, and the per-job pipeline.
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
	sem        chan struct{}
	inflight   atomic.Int32
	inflightHW atomic.Int32 // high-water mark of concurrent jobs
}

// NodeConfig configures a worker node.
type NodeConfig struct {
	ID       string
	GPUs     int // simulated GPUs per container
	Images   []Image
	PerImage int // warm containers per image
	Tags     []string
	ScanMode sandbox.ScanMode
	Limits   sandbox.Limits

	// MaxConcurrent bounds jobs in flight; 0 sizes it to the warm-pool
	// capacity (PerImage × images, min 1) — the paper's container-pool
	// unit of worker concurrency.
	MaxConcurrent int

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
		ScanMode: sandbox.ScanRaw,
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
	maxConc := cfg.MaxConcurrent
	if maxConc <= 0 {
		maxConc = perImage * len(images)
	}
	if maxConc < 1 {
		maxConc = 1
	}
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
		pool:    NewPool(images, gpus, perImage),
		scanner: sandbox.NewScanner(nil, cfg.ScanMode),
		limits:  limits,
		metrics: reg,
		progs:   progs,
		faults:  cfg.Faults,
		sem:     make(chan struct{}, maxConc),
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

// ProgCache exposes the node's program cache.
func (n *Node) ProgCache() *progcache.Cache { return n.progs }

// MaxConcurrent reports how many jobs the node admits at once.
func (n *Node) MaxConcurrent() int { return cap(n.sem) }

// InflightHighWater reports the largest number of jobs the node has
// executed concurrently.
func (n *Node) InflightHighWater() int { return int(n.inflightHW.Load()) }

// Execute runs one job through the full pipeline: admission, security
// scan, image selection, container acquisition, cached compile, run,
// container teardown. Result.QueueWait carries the time the job spent
// blocked on admission (a loaded node queues jobs at its semaphore the
// way the v1 web tier queued them behind busy workers).
//
// The context carries both cancellation (a done ctx aborts admission
// waits, compile waits, and the per-dataset fan-out) and, on the v1
// in-process path, the job's trace. On the v2 path the job arrives with
// only a TraceID; the node then builds a local span collector and ships
// the spans back on the Result.
func (n *Node) Execute(ctx context.Context, job *Job) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{JobID: job.ID, WorkerID: n.ID, TraceID: job.TraceID}
	tr := trace.FromContext(ctx)
	owned := false // we built the collector, so we must export its spans
	if tr == nil && job.TraceID != "" {
		tr = trace.New(job.TraceID)
		owned = true
	}
	if res.TraceID == "" {
		res.TraceID = tr.ID()
	}
	exportSpans := func() {
		if owned {
			res.Spans = tr.Spans()
		}
	}

	enqueued := time.Now()
	adm := tr.StartSpan("admission", "worker", n.ID)
	if done := ctx.Done(); done == nil {
		n.sem <- struct{}{} // uncancellable ctx: skip the select fast path
	} else {
		select {
		case n.sem <- struct{}{}:
		case <-done:
			res.QueueWait = time.Since(enqueued)
			res.Canceled = true
			res.Error = "worker: " + ctx.Err().Error()
			res.CompletedAt = time.Now()
			adm.EndAttrs("canceled", "true")
			n.metrics.Inc("jobs_canceled", 1)
			exportSpans()
			return res
		}
	}
	defer func() { <-n.sem }()
	res.QueueWait = time.Since(enqueued)
	adm.End()
	n.metrics.ObserveDuration("stage_admission_ms", res.QueueWait)

	cur := n.inflight.Add(1)
	defer n.inflight.Add(-1)
	for {
		hw := n.inflightHW.Load()
		if cur <= hw || n.inflightHW.CompareAndSwap(hw, cur) {
			break
		}
	}

	start := time.Now()
	defer func() {
		res.ExecDuration = time.Since(start)
		res.CompletedAt = time.Now()
		n.metrics.Inc("jobs_total", 1)
		n.metrics.ObserveDuration("job_exec_ms", res.ExecDuration)
		n.metrics.ObserveDuration("job_queue_wait_ms", res.QueueWait)
		exportSpans()
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
	if scan != nil {
		scan.EndAttrs("rejected", strconv.FormatBool(err != nil))
	}
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

	maxSteps := job.MaxSteps
	if maxSteps <= 0 {
		maxSteps = n.limits.MaxSteps
	}

	// Transient compile-infrastructure failure (chaos testing): the
	// submission is fine, the worker is not — report it retryable.
	if ferr := n.faults.Fire(faultinject.PointNodeCompile); ferr != nil {
		res.Error = ferr.Error()
		res.Transient = true
		n.metrics.Inc("jobs_faulted", 1)
		return res
	}

	// Compile exactly once per job through the content-addressed program
	// cache — identical sources across jobs compile once per process.
	compileStart := time.Now()
	prog, status, cerr := n.compileSubmission(ctx, job.Source, lab.Dialect)
	compileWall := time.Since(compileStart)
	cacheAttr := "miss"
	switch status {
	case progcache.Hit:
		cacheAttr = "hit"
		n.metrics.Inc("progcache_hits", 1)
	case progcache.Coalesced:
		cacheAttr = "coalesced"
		n.metrics.Inc("progcache_coalesced", 1)
	default:
		n.metrics.Inc("progcache_misses", 1)
	}
	if tr != nil { // skip building the attr map on untraced jobs
		tr.Add(trace.Span{Name: "compile", Start: compileStart, Dur: compileWall,
			Attrs: map[string]string{"cache": cacheAttr, "ok": strconv.FormatBool(cerr == nil)}})
	}
	n.metrics.ObserveDuration("stage_compile_ms", compileWall)

	// Static kernel analysis (kernelcheck). Diagnostics are a derived
	// artifact cached on the program-cache entry, so repeat submissions
	// skip re-analysis the same way they skip re-compilation. Under
	// fail-fast the analyzer gates execution, so it runs inline; under the
	// default warn policy the findings only ride the result, so the
	// analysis overlaps dataset execution instead of extending the job's
	// critical path (both only read the compiled program).
	joinAnalysis := func() {}
	if cerr == nil && job.AnalysisPolicy != AnalysisOff {
		kcStart := time.Now()
		var diags []kernelcheck.Diagnostic
		var aerr error
		var kcWall time.Duration
		finish := func() {
			n.metrics.ObserveDuration("stage_kernelcheck_ms", kcWall)
			if aerr == nil {
				res.Diagnostics = diags
				for _, dg := range diags {
					n.metrics.Inc(kernelcheck.MetricName(dg.ID), 1)
				}
			}
			if tr != nil {
				tr.Add(trace.Span{Name: "kernelcheck", Start: kcStart, Dur: kcWall,
					Attrs: map[string]string{
						"findings": strconv.Itoa(len(res.Diagnostics)),
						"errors":   strconv.Itoa(kernelcheck.ErrorCount(res.Diagnostics)),
						"policy":   analysisPolicyName(job.AnalysisPolicy),
					}})
			}
		}
		if job.AnalysisPolicy == AnalysisFailFast {
			diags, aerr = n.progs.Diagnostics(job.Source, lab.Dialect)
			kcWall = time.Since(kcStart)
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
				diags, aerr = n.progs.Diagnostics(job.Source, lab.Dialect)
				kcWall = time.Since(kcStart)
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

	execStart := time.Now()
	switch {
	case cerr != nil:
		res.Outcomes = compileErrorOutcomes(lab, job.DatasetID, cerr, compileWall)
	case job.DatasetID == DatasetCompileOnly:
		res.Outcomes = []*labs.Outcome{{LabID: lab.ID, DatasetID: -1,
			Compiled: true, WallTime: compileWall}}
	case job.DatasetID == DatasetAll:
		res.Outcomes = labs.RunAllCompiled(ctx, lab, prog, ctr.Devices, maxSteps)
	default:
		res.Outcomes = []*labs.Outcome{labs.RunCompiled(ctx, lab, prog, job.DatasetID, ctr.Devices, maxSteps)}
	}
	n.metrics.ObserveDuration("stage_exec_ms", time.Since(execStart))
	joinAnalysis()
	for _, o := range res.Outcomes {
		clamped, truncated := n.limits.ClampOutput(o.Trace)
		if truncated {
			o.Trace = clamped
		}
		if tr != nil && (o.Ran || o.Canceled) {
			attrs := map[string]string{
				"correct":  strconv.FormatBool(o.Correct),
				"canceled": strconv.FormatBool(o.Canceled),
				"sim_time": o.SimTime.String(),
			}
			if prog != nil {
				// Which execution engine ran the kernels, and how large
				// the lowered artifact was.
				if prog.ArtifactKind() == "bytecode-warp" {
					attrs["engine"] = "warp"
					attrs["instructions"] = strconv.Itoa(prog.InstructionCount())
				} else {
					attrs["engine"] = "tree"
				}
			}
			tr.Add(trace.Span{
				Name:  fmt.Sprintf("exec[dataset=%d]", o.DatasetID),
				Start: execStart, Dur: o.WallTime,
				Attrs: attrs})
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

// compileSubmission compiles through the node's program cache, enforcing
// the sandbox.Limits.CompileTimeout (§III-C: "time limits are placed ...
// on the duration of the compilation"). A timed-out or cancelled compile
// is abandoned; it still completes in the background and populates the
// cache.
func (n *Node) compileSubmission(ctx context.Context, src string, dialect minicuda.Dialect) (*minicuda.Program, progcache.Status, error) {
	if n.limits.CompileTimeout <= 0 && ctx.Done() == nil {
		return n.progs.CompileStatus(src, dialect)
	}
	type compiled struct {
		prog   *minicuda.Program
		status progcache.Status
		err    error
	}
	ch := make(chan compiled, 1)
	go func() {
		p, st, err := n.progs.CompileStatus(src, dialect)
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
			CompileError: cerr.Error(), WallTime: wall}
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
