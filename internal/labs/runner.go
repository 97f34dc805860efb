package labs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/progcache"
	"webgpu/internal/wb"
)

// Outcome is the result of running one submission against one dataset —
// the payload a worker node returns to the web tier (§III-C). Every
// outcome crosses the broker as JSON and is then stored per submission and
// attempt, so the fields that are empty on a passing run are left out of
// the encoding; readers decode through this type and see the zero value.
type Outcome struct {
	LabID        string
	DatasetID    int
	Compiled     bool
	CompileError string `json:",omitempty"`
	Ran          bool
	RuntimeError string `json:",omitempty"`
	Fault        *Fault `json:",omitempty"` // the compile or runtime error as facts (FaultOf)
	Correct      bool
	CheckMessage string
	FirstBad     int  `json:",omitempty"` // a failed check's first wrong element, -1 if the lengths differ
	Total        int  `json:",omitempty"` // a failed check's expected element count
	Canceled     bool `json:",omitempty"` // the job's context expired before this dataset ran
	Trace        string
	SimTime      time.Duration // simulated GPU time across launches
	WallTime     time.Duration
	Kernels      []KernelStats // per-launch performance counters
}

// KernelStats summarizes one kernel launch for the feedback analyzer and
// the Attempts view's performance read-out.
type KernelStats struct {
	Name         string
	Blocks       int
	Threads      int
	GlobalLoads  int64 `json:",omitempty"`
	GlobalStores int64 `json:",omitempty"`
	GlobalTx     int64 `json:",omitempty"`
	SharedOps    int64 `json:",omitempty"`
	SharedTx     int64 `json:",omitempty"`
	Atomics      int64 `json:",omitempty"`
	Barriers     int64 `json:",omitempty"`
	SimCycles    int64
}

// kernelStatsOf is the one place a launch's counters become the reported
// ones; TestKernelStatsCoverLaunchStats fails when gpusim grows a counter
// this neither copies nor is listed there as deliberately unreported.
func kernelStatsOf(s *gpusim.LaunchStats) KernelStats {
	return KernelStats{
		Name:         s.Name,
		Blocks:       s.Blocks,
		Threads:      s.Threads,
		GlobalLoads:  s.GlobalLoads,
		GlobalStores: s.GlobalStores,
		GlobalTx:     s.GlobalTx,
		SharedOps:    s.SharedOps,
		SharedTx:     s.SharedTx,
		Atomics:      s.Atomics,
		Barriers:     s.Barriers,
		SimCycles:    s.SimCycles,
	}
}

// CompileOnly compiles a submission without running it (the "Compile"
// button of the code view, §IV-A action 2). Compilation goes through the
// process-wide program cache, so the deadline-spike pattern of repeated
// identical sources compiles once; it asks for the verdict only
// (progcache.Check), not the program.
func CompileOnly(l *Lab, source string) *Outcome {
	o := &Outcome{LabID: l.ID, DatasetID: -1}
	start := time.Now()
	_, err := progcache.Default.Check(source, l.Dialect)
	o.WallTime = time.Since(start)
	if err != nil {
		o.CompileError, o.Fault = err.Error(), FaultOf(err)
		return o
	}
	o.Compiled = true
	return o
}

// canceledOutcome reports a dataset that was never run because the job's
// context expired first.
func canceledOutcome(l *Lab, datasetID int, err error) *Outcome {
	return &Outcome{LabID: l.ID, DatasetID: datasetID, Canceled: true,
		RuntimeError: "labs: " + err.Error()}
}

// Run compiles the submission (through the program cache) and executes
// the lab harness against the identified dataset on the given devices.
// maxSteps bounds per-thread execution (0 uses the platform default),
// implementing the per-lab time limits of §III-C. The dataset ID is
// validated before any compile work is spent.
func Run(ctx context.Context, l *Lab, source string, datasetID int, devices []*gpusim.Device, maxSteps int64) *Outcome {
	start := time.Now()
	if datasetID < 0 || datasetID >= l.NumDatasets {
		return &Outcome{LabID: l.ID, DatasetID: datasetID, WallTime: time.Since(start),
			RuntimeError: fmt.Sprintf("labs: dataset %d out of range [0,%d)", datasetID, l.NumDatasets)}
	}
	prog, err := progcache.Default.Compile(source, l.Dialect)
	if err != nil {
		return &Outcome{LabID: l.ID, DatasetID: datasetID, WallTime: time.Since(start),
			CompileError: err.Error(), Fault: FaultOf(err)}
	}
	o := RunCompiled(ctx, l, prog, datasetID, devices, maxSteps)
	o.WallTime = time.Since(start)
	return o
}

// RunCompiled executes an already-compiled submission against one
// dataset. Programs are immutable after sema and build their warp code
// once, so the same program may be running on several device sets
// concurrently. A context that is
// already done short-circuits before any simulated-GPU time is burned.
func RunCompiled(ctx context.Context, l *Lab, prog *minicuda.Program, datasetID int, devices []*gpusim.Device, maxSteps int64) *Outcome {
	if err := ctx.Err(); err != nil {
		return canceledOutcome(l, datasetID, err)
	}
	o := &Outcome{LabID: l.ID, DatasetID: datasetID, Compiled: true}
	start := time.Now()
	defer func() { o.WallTime = time.Since(start) }()

	if datasetID < 0 || datasetID >= l.NumDatasets {
		o.RuntimeError = fmt.Sprintf("labs: dataset %d out of range [0,%d)", datasetID, l.NumDatasets)
		return o
	}
	entry := l.dataset(datasetID)
	if entry.err != nil {
		o.RuntimeError, o.Fault = entry.err.Error(), FaultOf(entry.err)
		return o
	}
	if len(devices) == 0 {
		o.RuntimeError = "labs: no GPU available"
		return o
	}
	need := l.NumGPUs
	if need == 0 {
		need = 1
	}
	if len(devices) < need {
		o.RuntimeError = fmt.Sprintf("labs: lab needs %d GPUs, worker has %d", need, len(devices))
		return o
	}

	trace := wb.NewTrace()
	rc := &RunContext{Devices: devices[:need], Program: prog, Dataset: entry.ds,
		Trace: trace, MaxSteps: maxSteps, files: &entry.files}

	before := make([]int, len(rc.Devices))
	for i, d := range rc.Devices {
		before[i] = d.LaunchCount()
	}

	res, err := runHarness(l.Harness, rc)
	o.Trace = trace.String()
	for i, d := range rc.Devices {
		for _, s := range d.Launches()[before[i]:] {
			o.SimTime += s.SimTime
			o.Kernels = append(o.Kernels, kernelStatsOf(s))
		}
		d.Reset() // free the job's allocations, as the container teardown does
	}
	if err != nil {
		o.RuntimeError, o.Fault = err.Error(), FaultOf(err)
		return o
	}
	o.Ran = true
	o.Correct = res.Correct
	o.CheckMessage = res.Message
	if !res.Correct {
		o.FirstBad, o.Total = res.FirstBad, res.Total
	}
	return o
}

// RunAll runs a submission against every dataset of the lab, as the final
// "Submit for grading" action does (§IV-A action 5). The submission is
// compiled exactly once and the program is reused across all datasets; a
// compile failure is reported against every dataset, matching the
// per-dataset grading shape.
func RunAll(ctx context.Context, l *Lab, source string, devices []*gpusim.Device, maxSteps int64) []*Outcome {
	start := time.Now()
	prog, err := progcache.Default.Compile(source, l.Dialect)
	if err != nil {
		outs := make([]*Outcome, l.NumDatasets)
		for i := range outs {
			outs[i] = &Outcome{LabID: l.ID, DatasetID: i, CompileError: err.Error(),
				Fault: FaultOf(err), WallTime: time.Since(start)}
		}
		return outs
	}
	return RunAllCompiled(ctx, l, prog, devices, maxSteps)
}

// RunAllCompiled runs a compiled submission against every dataset. When
// the device set holds more GPUs than one run needs, the datasets fan out
// in parallel across disjoint device slots — a container holding 2k GPUs
// grades a k-GPU lab's datasets two at a time. Output order is
// deterministic: outs[i] is always dataset i. Once ctx is done, no
// further dataset is launched; the remaining outcomes are marked
// Canceled so the grading shape stays per-dataset.
func RunAllCompiled(ctx context.Context, l *Lab, prog *minicuda.Program, devices []*gpusim.Device, maxSteps int64) []*Outcome {
	outs := make([]*Outcome, l.NumDatasets)
	need := l.NumGPUs
	if need == 0 {
		need = 1
	}
	slots := 0
	if len(devices) >= need {
		slots = len(devices) / need
	}
	if slots > l.NumDatasets {
		slots = l.NumDatasets
	}
	if slots <= 1 {
		// Not enough devices to parallelize (or nothing to run them on —
		// RunCompiled reports the per-dataset device errors).
		for i := 0; i < l.NumDatasets; i++ {
			if err := ctx.Err(); err != nil {
				outs[i] = canceledOutcome(l, i, err)
				continue
			}
			outs[i] = RunCompiled(ctx, l, prog, i, devices, maxSteps)
		}
		return outs
	}
	ids := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		slot := devices[s*need : (s+1)*need]
		wg.Add(1)
		go func(devs []*gpusim.Device) {
			defer wg.Done()
			for i := range ids {
				outs[i] = RunCompiled(ctx, l, prog, i, devs, maxSteps)
			}
		}(slot)
	}
	for i := 0; i < l.NumDatasets; i++ {
		select {
		case ids <- i:
		case <-ctx.Done():
			outs[i] = canceledOutcome(l, i, ctx.Err())
		}
	}
	close(ids)
	wg.Wait()
	return outs
}

// KeywordsPresent reports which rubric keywords appear in the source,
// outside of comments (the preprocessed text is scanned, so commented-out
// keywords do not count — the same distinction §III-D draws for the
// security blacklist).
func KeywordsPresent(l *Lab, source string) []string {
	clean, err := minicuda.Preprocess(minicuda.StripComments(source))
	if err != nil {
		clean = minicuda.StripComments(source)
	}
	var present []string
	for _, kw := range l.Rubric.Keywords {
		if strings.Contains(clean, kw) {
			present = append(present, kw)
		}
	}
	return present
}

// NewDeviceSet builds the simulated GPUs a worker exposes to lab runs.
func NewDeviceSet(n int) []*gpusim.Device {
	devs := make([]*gpusim.Device, n)
	for i := range devs {
		devs[i] = gpusim.NewDefaultDevice()
		devs[i].SetIndex(i)
	}
	return devs
}
