package main

import "webgpu/internal/labs"

// This file is the benchmark's contract: the workload names, every metric
// name with its unit, and the bound by which each end-to-end metric may
// worsen before a change counts as a regression. BENCHMARK.json at the
// repository root repeats it for the driver; TestSpecMatchesBenchmarkJSON
// keeps the two identical. Adding a counter means adding a row here (and
// there) under a new name — an existing name is never redefined.

// Workload names.
const (
	warmMix        = "warm-mix"
	compileUnique  = "compile-unique"
	restartWarm    = "restart-warm"
	interactiveMix = "interactive-mix"
)

type workloadSpec struct {
	name string
	why  string
}

var workloadSpecs = []workloadSpec{
	{warmMix, "2 students in a closed loop submit cached reference solutions of the 8 HPP labs: exec-dominated (labs harness, warp engine, gpusim); the compiler does nothing"},
	{compileUnique, "2 students compile never-seen sources, 20% broken, with the durable store on: full compile, kernelcheck, cache miss and castore write; exec does nothing"},
	{restartWarm, "a fresh platform boots on a populated artifact store and compiles each source once: castore read, hash check and program decode; nothing recompiles"},
	{interactiveMix, "1 student on a 100 ms tick pushes a one-kernel edit, awaits its diagnostics event, then reads 4 pages over a filled DB: incremental analysis and db reads"},
}

type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd lists what a student or operator sees. Every workload reports
// every one of them; on interactive-mix a "job" is one edit-and-look cycle.
// Each bound is at least twice the quartile spread usually seen over ten
// seeds on the reference host, and covers the widest ever seen (README.md
// records the spreads); the driver allows no more than 0.25. CPU per job
// is not here but in perLayer (runtime.cpu_ms_per_job): on the workloads
// that leave cores idle, Go's idle-time collector workers and spinning
// schedulers make it drift by a fifth between two sets of runs of one
// binary, which no bound the driver allows can hold.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"turnaround_p50_ms", "ms", "lower", 0.20},
	{"turnaround_p75_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// exactCounts are the per-layer metrics that are counts made by the
// program on fixed inputs: two runs of one build must agree exactly.
// gpusim.sim_cycles ought to be one and is not: over all 15 references it
// moves by some tens of cycles in a million between two repetitions in
// one process, because the simulator's cycle accounting depends on how
// its goroutines interleave (ROADMAP item 1). progcache.recompiles is held
// to 0 on restart-warm by the run's own verdict, and is simply the number
// of sources compiled on the other workloads.
var exactCounts = map[string]bool{
	"minicuda.instrs":         true,
	"minicuda.artifact_bytes": true,
	"gpusim.sim_ops":          true,
}

// perLayer lists the single-layer numbers of a traced run, grouped by the
// internal/ package they describe.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := func(name, unit, better string) metricSpec { return metricSpec{name: name, unit: unit, better: better} }
	specs := []metricSpec{
		// load generator: the client-side view the end-to-end numbers come from
		m("loadgen.turnaround_p90_ms", "ms", "lower"),
		m("loadgen.turnaround_p99_ms", "ms", "lower"),
		m("loadgen.draft_feedback_p50_ms", "ms", "lower"),
		m("loadgen.draft_feedback_p90_ms", "ms", "lower"),
		m("loadgen.read_p50_ms", "ms", "lower"),
		m("loadgen.read_p90_ms", "ms", "lower"),
		m("loadgen.fail_share", "ratio", "lower"),
		m("bench.trace_overhead_pct", "%", "lower"),
		m("bench.residual_pct", "%", "lower"),
		// webserver
		m("webserver.overhead_ms", "ms", "lower"),
		m("webserver.lab_get_ms", "ms", "lower"),
		m("webserver.history_get_ms", "ms", "lower"),
		m("webserver.attempts_get_ms", "ms", "lower"),
		m("webserver.grade_get_ms", "ms", "lower"),
		// overload
		m("overload.admit_ns", "ns", "lower"),
		m("overload.shed_share", "ratio", "lower"),
		// queue
		m("queue.hop_us", "us", "lower"),
		m("queue.hop_backlog_us", "us", "lower"),
		m("queue.wait_ms", "ms", "lower"),
		// platform
		m("platform.dispatch_ms", "ms", "lower"),
		m("platform.hop_ms", "ms", "lower"),
		// worker
		m("worker.execute_ms", "ms", "lower"),
		m("worker.codec_us", "us", "lower"),
		m("worker.admission_ms", "ms", "lower"),
		m("worker.compile_ms", "ms", "lower"),
		m("worker.kernelcheck_ms", "ms", "lower"),
		m("worker.exec_ms", "ms", "lower"),
		// sandbox
		m("sandbox.scan_us", "us", "lower"),
		// progcache
		m("progcache.hit_ns", "ns", "lower"),
		m("progcache.miss_us", "us", "lower"),
		m("progcache.disk_hit_us", "us", "lower"),
		m("progcache.hit_ratio", "ratio", "higher"),
		m("progcache.recompiles", "count", "lower"),
		// minicuda compiler
		m("minicuda.lex_us", "us", "lower"),
		m("minicuda.parse_us", "us", "lower"),
		m("minicuda.sema_us", "us", "lower"),
		m("minicuda.lower_us", "us", "lower"),
		m("minicuda.compile_us", "us", "lower"),
		m("minicuda.encode_us", "us", "lower"),
		m("minicuda.decode_us", "us", "lower"),
		m("minicuda.hash_us", "us", "lower"),
		m("minicuda.compile_allocs", "count", "lower"),
		m("minicuda.instrs", "count", "lower"),
		m("minicuda.artifact_bytes", "count", "lower"),
		// minicuda engine
		m("minicuda.exec_ns_per_op", "ns", "lower"),
		// gpusim
		m("gpusim.sim_ops", "count", "lower"),
		m("gpusim.sim_cycles", "count", "lower"),
		m("gpusim.sim_cycles_per_job", "count", "lower"),
		m("gpusim.launch_overhead_us", "us", "lower"),
		m("gpusim.memcpy_mb_s", "MB/s", "higher"),
		// labs: one row per lab below
		m("labs.dataset_gen_ms", "ms", "lower"),
		// kernelcheck
		m("kernelcheck.analyze_us", "us", "lower"),
		m("kernelcheck.analyze_max_us", "us", "lower"),
		m("kernelcheck.incremental_us", "us", "lower"),
		m("kernelcheck.reuse_ratio", "ratio", "higher"),
		// grader
		m("grader.score_us", "us", "lower"),
		// db
		m("db.update_us", "us", "lower"),
		m("db.get_us", "us", "lower"),
		m("db.keys_us", "us", "lower"),
		m("db.wal_append_us", "us", "lower"),
		// castore
		m("castore.put_us", "us", "lower"),
		m("castore.get_us", "us", "lower"),
		m("castore.open_ms", "ms", "lower"),
		// devsession
		m("devsession.warm_draft_us", "us", "lower"),
		m("devsession.edit_draft_us", "us", "lower"),
		// trace, metrics
		m("trace.span_ns", "ns", "lower"),
		m("metrics.observe_ns", "ns", "lower"),
		// process
		m("runtime.alloc_kb_per_job", "kB", "lower"),
		m("runtime.mallocs_per_job", "count", "lower"),
		m("runtime.gc_cycles", "count", "lower"),
		m("runtime.cpu_ms_per_job", "ms", "lower"),
	}
	for _, l := range labs.All() {
		specs = append(specs, m("labs.runall_ms."+l.ID, "ms", "lower"))
	}
	return specs
}
