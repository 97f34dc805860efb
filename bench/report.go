package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"webgpu/internal/devsession"
	"webgpu/internal/trace"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metric map of a run from spec and the measured values;
// a per-layer metric the workload does not exercise reads 0.
func fill(spec []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(spec))
	for _, s := range spec {
		out[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	return out
}

// endToEndValues are the metrics of an untraced window, over every
// verified job of the whole window. (Medians over slices of the window
// were tried and repeated worse: this host's interference lasts longer
// than a run, so slicing only shrank the samples.)
func endToEndValues(w *window, setupS, rssMB float64) map[string]float64 {
	lat := msSorted(w.jobs)
	jobs := float64(len(w.jobs))
	return map[string]float64{
		"setup_s":           setupS,
		"turnaround_p50_ms": quantile(lat, 0.50),
		"turnaround_p75_ms": quantile(lat, 0.75),
		"jobs_per_s":        jobs / w.elapsed.Seconds(),
		"peak_rss_mb":       rssMB,
	}
}

// printMetrics writes every metric by name with its unit.
func printMetrics(out io.Writer, spec []metricSpec, m map[string]metric, samples int) {
	for _, s := range spec {
		line := fmt.Sprintf("  %-34s %14.4f %s", s.name, m[s.name].Value, s.unit)
		if strings.HasPrefix(s.name, "turnaround_") {
			line += fmt.Sprintf("  (n=%d)", samples)
		}
		if s.bound > 0 {
			line += fmt.Sprintf("  [bound %.0f%%]", s.bound*100)
		}
		fmt.Fprintln(out, line)
	}
}

// ---- Stage tables ---------------------------------------------------------------

// stageRow is one row of a reconciliation table.
type stageRow struct {
	name string
	p50  float64 // ms
	mean float64 // ms
	note string
}

// p50of is the median of durations, in milliseconds.
func p50of(ds []time.Duration) float64 { return quantile(msSorted(ds), 0.50) }

// stage builds a row from one stage's duration in every job.
func stage(name string, ds []time.Duration, note string) stageRow {
	return stageRow{name: name, p50: p50of(ds), mean: mean(msSorted(ds)), note: note}
}

// jobStages splits one traced job's turnaround along its blocking path
// using the spans the program recorded. The worker's stages come from
// their spans; hop is what remains of the dispatch span (publish, the
// driver's and the router's idle-poll sleeps, job and result codecs), and
// webserver is what remains of the turnaround outside dispatch and grade
// (HTTP, auth, admission, the revision and submission writes, JSON both
// ways, the client's own verification). The stages of one job therefore
// sum to its turnaround exactly; the medians need not, and the residual
// says by how much they do not.
type jobStages struct {
	webserver, hop, queueWait, admission, scan, compile, kernelcheck, exec, grade time.Duration
	dispatch, kernelcheckSpan                                                     time.Duration
	cache                                                                         string
}

// gpusPerWorker is the platform option the benchmark boots with; a
// container's datasets fan out over that many slots.
const gpusPerWorker = 2

func splitJob(jt jobTrace) (jobStages, bool) {
	var s jobStages
	var kc, firstExec *trace.Span
	var execDurs []time.Duration
	seenDispatch := false
	for i := range jt.Spans {
		sp := &jt.Spans[i]
		switch {
		case sp.Name == "dispatch":
			s.dispatch, seenDispatch = sp.Dur, true
		case sp.Name == "queue_wait":
			s.queueWait = sp.Dur
		case sp.Name == "admission":
			s.admission = sp.Dur
		case sp.Name == "scan":
			s.scan = sp.Dur
		case sp.Name == "compile":
			s.compile, s.cache = sp.Dur, sp.Attrs["cache"]
		case sp.Name == "kernelcheck":
			kc, s.kernelcheckSpan = sp, sp.Dur
		case sp.Name == "grade":
			s.grade = sp.Dur
		case strings.HasPrefix(sp.Name, "exec["):
			if firstExec == nil {
				firstExec = sp
			}
			execDurs = append(execDurs, sp.Dur)
		}
	}
	if !seenDispatch {
		return s, false
	}
	// The exec spans carry each dataset's wall time but share one start:
	// the stage's wall time is the makespan of handing the datasets, in
	// order, to whichever of the container's GPU slots frees first.
	var slots [gpusPerWorker]time.Duration
	for _, d := range execDurs {
		least := 0
		for i := range slots {
			if slots[i] < slots[least] {
				least = i
			}
		}
		slots[least] += d
	}
	for _, busy := range slots {
		if busy > s.exec {
			s.exec = busy
		}
	}
	// Analysis overlaps execution; only what outlasts it blocks the job.
	if kc != nil {
		s.kernelcheck = kc.Dur
		if firstExec != nil {
			s.kernelcheck = kc.Start.Add(kc.Dur).Sub(firstExec.Start.Add(s.exec))
			if s.kernelcheck < 0 {
				s.kernelcheck = 0
			}
		}
	}
	s.hop = s.dispatch - s.queueWait - s.admission - s.scan - s.compile - s.exec - s.kernelcheck
	s.webserver = jt.Dur - s.dispatch - s.grade
	return s, true
}

// stageTable is a workload's reconciliation: the stage medians, the
// end-to-end median they should add up to, and the residual.
type stageTable struct {
	rows      []stageRow
	total     float64 // end-to-end p50, ms
	totalMean float64 // end-to-end mean, ms
	residual  float64 // |total − Σ rows| ÷ total, %
	values    map[string]float64
}

func (t *stageTable) finish() {
	sum := 0.0
	for _, r := range t.rows {
		sum += r.p50
	}
	if t.total > 0 {
		t.residual = 100 * math.Abs(t.total-sum) / t.total
	}
}

// stageMetric names the per-layer metric a job stage's median is reported as.
var stageMetric = map[string]string{
	"webserver overhead": "webserver.overhead_ms",
	"hop":                "platform.hop_ms",
	"queue wait":         "queue.wait_ms",
	"admission":          "worker.admission_ms",
	"compile":            "worker.compile_ms",
	"exec":               "worker.exec_ms",
}

func jobStageTable(traces []jobTrace) *stageTable {
	var all []jobStages
	var total []time.Duration
	cache := map[string]int{}
	for _, jt := range traces {
		if s, ok := splitJob(jt); ok {
			all = append(all, s)
			total = append(total, jt.Dur)
			cache[s.cache]++
		}
	}
	col := func(get func(jobStages) time.Duration) []time.Duration {
		ds := make([]time.Duration, len(all))
		for i, s := range all {
			ds[i] = get(s)
		}
		return ds
	}
	var statuses []string
	for k, n := range cache {
		statuses = append(statuses, fmt.Sprintf("%s %d", k, n))
	}
	sort.Strings(statuses)
	t := &stageTable{total: p50of(total), totalMean: mean(msSorted(total))}
	t.rows = []stageRow{
		stage("webserver overhead", col(func(s jobStages) time.Duration { return s.webserver }), "turnaround − dispatch − grade"),
		stage("hop", col(func(s jobStages) time.Duration { return s.hop }), "dispatch − worker stages"),
		stage("queue wait", col(func(s jobStages) time.Duration { return s.queueWait }), "includes the driver's idle-poll sleep"),
		stage("admission", col(func(s jobStages) time.Duration { return s.admission }), ""),
		stage("scan", col(func(s jobStages) time.Duration { return s.scan }), ""),
		stage("compile", col(func(s jobStages) time.Duration { return s.compile }), "cache: "+strings.Join(statuses, ", ")),
		stage("exec", col(func(s jobStages) time.Duration { return s.exec }), "datasets over 2 GPU slots"),
		stage("kernelcheck", col(func(s jobStages) time.Duration { return s.kernelcheck }), "the part that outlasts exec"),
		stage("grade", col(func(s jobStages) time.Duration { return s.grade }), ""),
	}
	t.finish()
	t.values = map[string]float64{
		"worker.kernelcheck_ms":     p50of(col(func(s jobStages) time.Duration { return s.kernelcheckSpan })),
		"platform.dispatch_ms":      p50of(col(func(s jobStages) time.Duration { return s.dispatch })),
		"loadgen.turnaround_p90_ms": quantile(msSorted(total), 0.90),
		"loadgen.turnaround_p99_ms": quantile(msSorted(total), 0.99),
	}
	for _, r := range t.rows {
		if name, ok := stageMetric[r.name]; ok {
			t.values[name] = r.p50
		}
	}
	return t
}

// cycleStageTable reconciles an interactive cycle from the client's own
// timings and the analysis time the diagnostics event reports.
func cycleStageTable(cycles []cycle) *stageTable {
	var total, feedback, pooled, debounce, analysis, delivery []time.Duration
	var reads [4][]time.Duration
	reused, analyzed := 0, 0
	for _, c := range cycles {
		// The event reports the server's analysis time; the debounce is a
		// constant of the program; delivery is what remains of the wait.
		an := time.Duration(c.AnalysisMS * float64(time.Millisecond))
		total = append(total, c.total())
		feedback = append(feedback, c.Feedback)
		debounce = append(debounce, devsession.DefaultDebounce)
		analysis = append(analysis, an)
		delivery = append(delivery, c.Feedback-devsession.DefaultDebounce-an)
		for i, r := range c.Reads {
			reads[i] = append(reads[i], r)
			pooled = append(pooled, r)
		}
		reused += c.Reused
		analyzed += c.Analyzed
	}
	t := &stageTable{total: p50of(total), totalMean: mean(msSorted(total))}
	t.rows = []stageRow{
		stage("draft debounce", debounce, "devsession.DefaultDebounce, a constant"),
		stage("draft analysis", analysis, fmt.Sprintf("compile + incremental kernelcheck; %d functions analyzed, %d reused", analyzed, reused)),
		stage("draft delivery", delivery, "POST, pickup, SSE write and read"),
	}
	t.values = map[string]float64{}
	for i, name := range readNames {
		row := stage("GET "+name, reads[i], "")
		t.rows = append(t.rows, row)
		t.values["webserver."+name+"_get_ms"] = row.p50
	}
	t.finish()
	fbs, rds := msSorted(feedback), msSorted(pooled)
	t.values["loadgen.draft_feedback_p50_ms"] = quantile(fbs, 0.50)
	t.values["loadgen.draft_feedback_p90_ms"] = quantile(fbs, 0.90)
	t.values["loadgen.read_p50_ms"] = quantile(rds, 0.50)
	t.values["loadgen.read_p90_ms"] = quantile(rds, 0.90)
	t.values["loadgen.turnaround_p90_ms"] = quantile(msSorted(total), 0.90)
	t.values["loadgen.turnaround_p99_ms"] = quantile(msSorted(total), 0.99)
	return t
}

func (t *stageTable) print(out io.Writer, workload string) {
	fmt.Fprintf(out, "  stage table of the traced window (each job's stages sum to its turnaround):\n")
	fmt.Fprintf(out, "    %-20s %12s %12s\n", "stage", "p50 ms", "mean ms")
	sum, sumMean := 0.0, 0.0
	for _, r := range t.rows {
		sum += r.p50
		sumMean += r.mean
		fmt.Fprintf(out, "    %-20s %12.3f %12.3f  %s\n", r.name, r.p50, r.mean, r.note)
	}
	fmt.Fprintf(out, "    %-20s %12.3f %12.3f\n", "sum of stages", sum, sumMean)
	fmt.Fprintf(out, "    %-20s %12.3f %12.3f  residual of the p50s %.1f%%", "end-to-end", t.total, t.totalMean, t.residual)
	if workload == warmMix && t.residual > 10 {
		fmt.Fprint(out, "  ** above 10%: the stages do not explain the turnaround **")
	}
	fmt.Fprintln(out)
}
