// Command bench is the repository's benchmark: four seeded closed-loop
// workloads driven over loopback HTTP against the production composition
// of the platform, reporting end-to-end metrics from an untraced timed
// run and per-layer metrics from a separate traced run. See README.md.
//
//	go run -C bench . --workload warm-mix --seed 7 --seconds 20 --trace 0
//	go run -C bench . -repeat 10 -check          # every workload, ten seeds
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// Set-up is repeated up to setupRepeats times while it has cost less
// than setupBudget in total.
const (
	setupRepeats = 25
	setupBudget  = time.Second
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 2015, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed window")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload, each on the next seed, each in a process of its own")
	check := fs.Bool("check", false, "with -repeat: fail if the runs disagree by more than a metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloadSpecs {
			names = append(names, w.name)
		}
	}

	if len(names) == 1 && *repeat == 1 {
		cfg := config{workload: names[0], seed: *seed, seconds: *seconds, trace: *traced == 1,
			scale: 1, outDir: "out", log: stdout}
		res, err := runOnce(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct || res.Failed > 0 {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", cfg.workload, res.Failed, res.Attempted)
			return 1
		}
		return 0
	}

	// More than one run: each in a child process, as the driver runs
	// them, so that set-up time, peak memory and the collector's state
	// belong to one run alone.
	spec := endToEnd
	if *traced == 1 {
		spec = perLayer
	}
	ok := true
	for _, name := range names {
		var runs []result
		for i := 0; i < *repeat; i++ {
			res, err := runChild(stdout, stderr, name, *seed+int64(i), *seconds, *traced)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			runs = append(runs, res)
		}
		if *repeat > 1 && !agreement(stdout, name, spec, runs, *check) {
			ok = false
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: the runs disagree by more than a bound")
		return 1
	}
	return 0
}

// runChild runs one workload once in a child process, passes its report
// through, and parses the result from its last line.
func runChild(stdout, stderr io.Writer, name string, seed int64, seconds float64, traced int) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	last := ""
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		last = sc.Text()
		if !strings.HasPrefix(last, "{") {
			fmt.Fprintln(stdout, last)
		}
	}
	if err := cmd.Wait(); err != nil {
		return res, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
	}
	return res, nil
}

// agreement prints, per metric, the runs' median and spread beside the
// bound, and reports whether every checked metric agrees. The spread is
// the driver's: the distance between the quartiles over the median. The
// spread of setup_s is shown but not checked, as the driver does not
// check it either; counts made on fixed inputs must agree exactly.
func agreement(out io.Writer, name string, spec []metricSpec, runs []result, check bool) bool {
	fmt.Fprintf(out, "\n%s: agreement of %d runs\n", name, len(runs))
	fmt.Fprintf(out, "  %-34s %14s %9s %7s\n", "metric", "median", "spread", "bound")
	ok := true
	for _, s := range spec {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[s.name].Value
		}
		spread := quartileSpread(vals)
		note, bad := "", false
		switch {
		case exactCounts[s.name]:
			for _, v := range vals {
				if v != vals[0] {
					note, bad = "  DIFFERS (exact count)", true
				}
			}
		case s.bound > 0 && s.name != "setup_s" && spread > s.bound:
			note, bad = "  EXCEEDS BOUND", true
		case s.bound > 0 && spread > s.bound/3:
			note = "  (above a third of the bound)"
		}
		if check && bad {
			ok = false
		}
		bound := ""
		if s.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", s.bound*100)
		}
		fmt.Fprintf(out, "  %-34s %14.4f %8.2f%% %7s%s\n", s.name, median(vals), spread*100, bound, note)
	}
	return ok
}

// runOnce sets one workload up, measures it, and reports.
func runOnce(cfg config) (result, error) {
	var res result
	// Some workloads set up in milliseconds, and one reading of that is
	// mostly noise: set up again, tearing the last one down, until it has
	// been done setupRepeats times or has cost setupBudget, and report
	// the median. The last one is the one measured.
	var r *run
	var setups []float64
	for spent := time.Duration(0); len(setups) < setupRepeats && spent.Seconds() < setupBudget.Seconds()*cfg.scale; {
		if r != nil {
			r.close()
		}
		begin := time.Now()
		next, err := setup(cfg)
		if err != nil {
			return res, err
		}
		r = next
		took := time.Since(begin)
		spent += took
		setups = append(setups, took.Seconds())
	}
	closed := false
	shutdown := func() {
		if !closed {
			closed = true
			r.close()
		}
	}
	defer shutdown()
	span := time.Duration(cfg.seconds * float64(time.Second))

	fingerprint(cfg, r)
	if !cfg.trace {
		w := r.measure(span, false)
		recompiles := r.recompiles()
		shutdown()
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		res = verdict(cfg, w, recompiles)
		res.Metrics = fill(endToEnd, endToEndValues(w, median(setups), rss))
		fmt.Fprintf(cfg.log, "%s: end-to-end, untraced window of %.1fs\n", cfg.workload, w.elapsed.Seconds())
		printMetrics(cfg.log, endToEnd, res.Metrics, len(w.jobs))
		return res, nil
	}

	// A traced run: a short untraced window, the same again with spans
	// joined, then — the platform gone — the layer replays.
	plain := r.measure(span/4, false)
	joined := r.measure(span/4, true)
	cacheStats := r.p.ProgCache().Stats()
	recompiles := r.recompiles()
	shutdown()
	layers, err := runLayers(cfg)
	if err != nil {
		return res, err
	}

	var table *stageTable
	if cfg.workload == interactiveMix {
		table = cycleStageTable(joined.cycles)
	} else {
		table = jobStageTable(joined.traces)
	}
	values := layers.metrics
	for k, v := range table.values {
		values[k] = v
	}
	both := &window{}
	both.merge(plain)
	both.merge(joined)
	jobs := float64(len(joined.jobs))
	values["bench.residual_pct"] = table.residual
	if p := p50of(plain.jobs); p > 0 {
		values["bench.trace_overhead_pct"] = 100 * (p50of(joined.jobs) - p) / p
	}
	values["loadgen.fail_share"] = float64(both.failed) / float64(both.attempted)
	values["overload.shed_share"] = float64(both.shed) / float64(both.attempted)
	if lookups := cacheStats.Hits + cacheStats.Misses; lookups > 0 {
		values["progcache.hit_ratio"] = float64(cacheStats.Hits) / float64(lookups)
	}
	values["progcache.recompiles"] = float64(recompiles)
	values["gpusim.sim_cycles_per_job"] = float64(joined.simCycles) / jobs
	values["runtime.alloc_kb_per_job"] = joined.proc.allocKB / jobs
	values["runtime.mallocs_per_job"] = joined.proc.mallocs / jobs
	values["runtime.gc_cycles"] = joined.proc.gc
	values["runtime.cpu_ms_per_job"] = ms(joined.proc.cpu) / jobs

	res = verdict(cfg, both, recompiles)
	res.Metrics = fill(perLayer, values)
	fmt.Fprintf(cfg.log, "%s: per-layer, traced window of %.1fs after an untraced one of %.1fs\n",
		cfg.workload, joined.elapsed.Seconds(), plain.elapsed.Seconds())
	table.print(cfg.log, cfg.workload)
	fmt.Fprintf(cfg.log, "  bench.trace_overhead_pct %.2f%% (traced p50 %.3f ms, untraced p50 %.3f ms)\n",
		values["bench.trace_overhead_pct"], p50of(joined.jobs), p50of(plain.jobs))
	printMetrics(cfg.log, perLayer, res.Metrics, len(joined.jobs))
	if err := writeTrace(cfg, joined, layers); err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.log, "  spans written to %s\n", traceFile(cfg))
	return res, nil
}

// recompiles is how many sources the platform compiled since boot.
func (r *run) recompiles() int64 { return r.p.ProgCache().Stats().Compiles }

// verdict turns the windows' counts into the result's correctness fields
// and reports the first failures.
func verdict(cfg config, w *window, recompiles int64) result {
	res := result{Correct: w.failed == 0 && len(w.jobs) > 0, Attempted: w.attempted, Failed: w.failed}
	for _, err := range w.errs {
		fmt.Fprintf(cfg.log, "  FAILED: %v\n", err)
	}
	if cfg.workload == restartWarm && recompiles != 0 {
		res.Correct = false
		fmt.Fprintf(cfg.log, "  FAILED: the restarted platform recompiled %d sources, want 0\n", recompiles)
	}
	if w.exhausted {
		fmt.Fprintf(cfg.log, "  note: the request list ran out before the window did\n")
	}
	return res
}

// fingerprint prints what the numbers were measured on.
func fingerprint(cfg config, r *run) {
	sha := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	cache := "none"
	if r.cacheDir != "" {
		cache = fmt.Sprintf("%s (%s)", r.cacheDir, fsName(r.cacheDir))
	}
	fmt.Fprintf(cfg.log, "host: nproc=%d GOMAXPROCS=%d go=%s git=%s cache-dir=%s seed=%d clients=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sha, cache, cfg.seed, students)
}

// traceFile is where a traced run writes its spans at exit.
func traceFile(cfg config) string {
	return filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
}

// writeTrace writes the traced run's spans, kept in memory until now.
func writeTrace(cfg config, w *window, layers *layerBench) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(traceFile(cfg))
	if err != nil {
		return err
	}
	doc := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Jobs     []jobTrace  `json:"jobs,omitempty"`
		Cycles   []cycle     `json:"cycles,omitempty"`
		Layers   []layerSpan `json:"layers"`
	}{cfg.workload, cfg.seed, w.traces, w.cycles, layers.spans}
	werr := json.NewEncoder(f).Encode(doc)
	return errors.Join(werr, f.Close())
}
