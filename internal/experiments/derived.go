package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/gpusim"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
	"webgpu/internal/peerreview"
	"webgpu/internal/queue"
	"webgpu/internal/sandbox"
	"webgpu/internal/wb"
	"webgpu/internal/worker"
	"webgpu/internal/workload"
)

// ---- D1: GPU:student ratio ---------------------------------------------------------

// GPURatio sweeps the number of GPUs serving a fixed concurrent student
// population and reports queueing delay — the paper's claim that "the
// number of GPUs available through WebGPU can be dramatically fewer than
// the expected number of concurrent users".
func GPURatio() string {
	var sb strings.Builder
	sb.WriteString("== D1: latency vs GPU:student ratio ==\n\n")
	sb.WriteString("peak-week load: 112 concurrent students (Figure 1 peak), each submitting\n")
	sb.WriteString("~2 jobs/hour; one GPU serves ~30 jobs/hour.\n\n")

	const students = 112.0
	const jobsPerStudentHour = 2.0
	const svcRate = 30.0
	arrivals := make([]float64, 72) // three peak days
	for i := range arrivals {
		arrivals[i] = students * jobsPerStudentHour
	}
	fmt.Fprintf(&sb, "%-6s %-16s %-14s %-14s %s\n",
		"GPUs", "students:GPU", "mean wait (h)", "p95 wait (h)", "utilization")
	for _, gpus := range []int{1, 2, 4, 8, 16, 32} {
		res := simulate(arrivals, time.Unix(0, 0), svcRate, static{N: gpus})
		fmt.Fprintf(&sb, "%-6d %-16.1f %-14.2f %-14.2f %.1f%%\n",
			gpus, students/float64(gpus), res.MeanWaitHours, res.P95WaitHours, res.UtilizationPct)
	}
	sb.WriteString("\n8 GPUs serve 112 concurrent students (14:1) with sub-hour waits —\n")
	sb.WriteString("far fewer devices than users, as the paper argues.\n")
	return sb.String()
}

// ---- D2: provisioning ----------------------------------------------------------------

// Provisioning compares static, scheduled (the paper's manual practice),
// reactive, and hybrid scaling against the HPC-cluster baseline over the
// full Figure 1 course.
func Provisioning() string {
	var sb strings.Builder
	sb.WriteString("== D2: provisioning policies over the 2015 course (Figure 1 load) ==\n\n")
	m := workload.Figure1Model()
	arrivals := workload.SubmissionArrivals(m.HourlySeries(), 2.0)
	const svcRate = 30.0

	peak := 0.0
	for _, a := range arrivals {
		if a > peak {
			peak = a
		}
	}
	staticN := int(peak/svcRate) + 1

	elastic := reactive{PerWorkerPerHour: svcRate, TargetHours: 1, Min: 1, Max: staticN}
	policies := []policy{
		static{N: staticN},
		scheduled{Base: staticN / 4, Boost: staticN,
			BoostDays: map[time.Weekday]bool{time.Wednesday: true, time.Thursday: true}},
		elastic,
		hybrid{
			Sched: scheduled{Base: 1, Boost: staticN / 2,
				BoostDays: map[time.Weekday]bool{time.Wednesday: true, time.Thursday: true}},
			Reactive: elastic,
		},
	}
	fmt.Fprintf(&sb, "%-12s %-14s %-12s %-14s %-14s %s\n",
		"policy", "worker-hours", "peak fleet", "mean wait(h)", "p95 wait(h)", "utilization")
	var staticCost, elasticCost float64
	for _, p := range policies {
		res := simulate(arrivals, m.Start, svcRate, p)
		switch p.Name() {
		case "static":
			staticCost = res.WorkerHours
		case "reactive":
			elasticCost = res.WorkerHours
		}
		fmt.Fprintf(&sb, "%-12s %-14.0f %-12d %-14.2f %-14.2f %.1f%%\n",
			res.Policy, res.WorkerHours, res.PeakWorkers, res.MeanWaitHours,
			res.P95WaitHours, res.UtilizationPct)
	}

	// HPC cluster baseline.
	campus := campusCluster(0)
	campus.Nodes = campus.sizeForPeak(arrivals)
	cres := campus.simulate(arrivals)
	fmt.Fprintf(&sb, "%-12s %-14.0f %-12d %-14.2f %-14.2f %.1f%%   (shared campus cluster)\n",
		"hpc-cluster", cres.WorkerHours, campus.Nodes, cres.MeanWaitHours,
		cres.P95WaitHours, cres.UtilizationPct)

	fmt.Fprintf(&sb, "\nelastic scaling uses %.0f%% of the static fleet's worker-hours at\n",
		100*elasticCost/staticCost)
	sb.WriteString("comparable p95 wait — the §II-C argument: static provisioning for the\n")
	sb.WriteString("course start is mostly idle by the end.\n")
	return sb.String()
}

// ---- D3: dispatch models ---------------------------------------------------------------

// Dispatch contrasts v1 push dispatch (jobs fail when their worker dies)
// with v2 poll dispatch (the broker's visibility timeout redelivers the
// lease to a surviving worker).
func Dispatch() string {
	var sb strings.Builder
	sb.WriteString("== D3: push (v1) vs poll (v2) dispatch under worker churn ==\n\n")

	// v2: lease a job, "crash" the worker (never ack), watch redelivery.
	b := queue.NewBroker()
	bclk := clock.NewManual(time.Unix(0, 0))
	b.SetClock(bclk)
	job := &worker.Job{ID: "job-1", LabID: "vector-add",
		Source: labs.ByID("vector-add").Reference, DatasetID: 0}
	_, _ = b.Publish(worker.TopicJobs, worker.EncodeJob(job))
	d1, ok, _ := b.Poll(worker.TopicJobs, "doomed-worker", map[string]bool{"cuda": true}, 30*time.Second)
	fmt.Fprintf(&sb, "v2: doomed worker leased the job: %v (attempt %d)\n", ok, d1.Msg.Attempts)
	bclk.Advance(31 * time.Second) // the worker died; its lease expires
	d2, ok, _ := b.Poll(worker.TopicJobs, "healthy-worker", map[string]bool{"cuda": true}, 30*time.Second)
	fmt.Fprintf(&sb, "v2: after lease expiry a healthy worker received it: %v (attempt %d)\n", ok, d2.Msg.Attempts)
	node := worker.NewNode(worker.DefaultNodeConfig("healthy-worker"))
	res := node.Execute(context.Background(), job)
	if err := d2.Ack(); err != nil {
		fmt.Fprintf(&sb, "v2: ack failed: %v\n", err)
	}
	fmt.Fprintf(&sb, "v2: job completed correctly after redelivery: %v\n", res.Correct())
	fmt.Fprintf(&sb, "v2: broker stats: %+v\n\n", b.Stats())

	// v1: the registry evicts silent workers; jobs dispatched meanwhile
	// fail fast with no automatic retry.
	reg := newPushRegistry(30 * time.Second)
	clk := clock.NewManual(time.Unix(0, 0))
	reg.SetClock(clk)
	reg.Register(worker.NewNode(worker.DefaultNodeConfig("w1")))
	fmt.Fprintf(&sb, "v1: pool = %v\n", reg.Alive())
	clk.Advance(45 * time.Second) // w1 stops sending health checks
	errc := make(chan error, 1)
	go func() {
		_, err := reg.Dispatch(context.Background(), job)
		errc <- err
	}()
	for i := 0; i < pushRetries; i++ {
		clk.BlockUntil(1)        // a retry's backoff, on the registry's clock
		clk.Advance(time.Second) // past the longest backoff
	}
	err := <-errc
	fmt.Fprintf(&sb, "v1: after missed health checks, pool = %v, dispatch error: %v\n",
		reg.Alive(), err)
	fmt.Fprintf(&sb, "v1: evictions = %d; the web tier must retry the job itself\n", reg.Evictions())
	sb.WriteString("\nthe poll model decouples job durability from worker liveness, which is\n")
	sb.WriteString("what lets v2 'more freely perform automatic scaling' (§VI-A).\n")
	return sb.String()
}

// ---- D4: peer review ---------------------------------------------------------------------

// PeerReview sweeps retention and reports review starvation, reproducing
// the §IV-D failure that forced the weight from 10% to 5% to 0.
func PeerReview() string {
	var sb strings.Builder
	sb.WriteString("== D4: peer-review starvation vs retention (§IV-D) ==\n\n")
	rng := rand.New(rand.NewSource(2014))
	students := make([]string, 2000)
	for i := range students {
		students[i] = fmt.Sprintf("s%04d", i)
	}
	as, err := peerreview.AssignRandom("tiled-matmul", students, 3, rng)
	if err != nil {
		return err.Error()
	}
	fmt.Fprintf(&sb, "%d students, 3 random reviews each (the 2014 offering's scheme)\n\n", len(students))
	fmt.Fprintf(&sb, "%-12s %-18s %-22s %s\n",
		"retention", "reviews by active", "active getting none", "starvation")
	for _, retention := range []float64{0.90, 0.50, 0.30, 0.15, 0.05, 0.03} {
		active := map[string]bool{}
		for i, s := range students {
			if float64(i) < retention*float64(len(students)) {
				active[s] = true
			}
		}
		st := peerreview.Starvation(as, active)
		fmt.Fprintf(&sb, "%-12s %-18d %-22d %.1f%%\n",
			fmt.Sprintf("%.0f%%", 100*retention), st.ReviewsByActive,
			st.ActiveGettingNone, 100*st.StarvationRate)
	}
	sb.WriteString("\nat the course's ~3% completion rate (Table I), nearly every active\n")
	sb.WriteString("student reviews without being reviewed — the complaint that drove the\n")
	sb.WriteString("weight from 10% (2014) to 5% and then removal (2015).\n")
	return sb.String()
}

// ---- D5: security ---------------------------------------------------------------------------

// Security compares the raw and preprocessed blacklist scan modes on a
// corpus of submissions. What a scan costs is bench/'s sandbox.scan_us.
func Security() string {
	var sb strings.Builder
	sb.WriteString("== D5: blacklist scanning modes (§III-D) ==\n\n")

	type sample struct {
		name      string
		source    string
		malicious bool
	}
	corpus := []sample{
		{"clean vector-add", labs.ByID("vector-add").Reference, false},
		{"clean tiled matmul", labs.ByID("tiled-matmul").Reference, false},
		{"inline assembly", `__global__ void k(float *a){ asm("mov"); }`, true},
		{"system() call", `__global__ void k(float *a){ } void host() { system("rm"); }`, true},
		{"asm in a comment", "// never call asm() here\n" + labs.ByID("vector-add").Reference, false},
		{"fork in block comment", "/* fork bombs are bad */\n" + labs.ByID("vector-add").Reference, false},
	}
	raw := sandbox.NewScanner(nil, sandbox.ScanRaw)
	pp := sandbox.NewScanner(nil, sandbox.ScanPreprocessed)

	fmt.Fprintf(&sb, "%-26s %-11s %-14s %s\n", "submission", "malicious", "raw scan", "preprocessed scan")
	rawFP, ppFP := 0, 0
	for _, c := range corpus {
		r := raw.Check(c.source) != nil
		p := pp.Check(c.source) != nil
		verdict := func(rejected bool) string {
			if rejected {
				return "REJECTED"
			}
			return "accepted"
		}
		if r && !c.malicious {
			rawFP++
		}
		if p && !c.malicious {
			ppFP++
		}
		fmt.Fprintf(&sb, "%-26s %-11v %-14s %s\n", c.name, c.malicious, verdict(r), verdict(p))
	}
	fmt.Fprintf(&sb, "\nfalse positives: raw=%d preprocessed=%d  (the paper: raw mode 'rejects\n", rawFP, ppFP)
	sb.WriteString("code which contains the black listed functions even within comments')\n")

	// Runtime whitelist demonstration.
	mon := sandbox.NewMonitor(sandbox.DefaultPolicy())
	_ = mon.Call("write")
	err := mon.Call("socket")
	fmt.Fprintf(&sb, "\nruntime whitelist: write allowed; socket -> %v; job killed: %v\n",
		err != nil, mon.Killed())
	return sb.String()
}

// ---- D6: tag-aware dispatch -------------------------------------------------------------------

// Tags compares fleet cost with tag-aware dispatch (mixed fleet) against
// provisioning every worker for the most demanding lab (§VI-A: no need to
// "provision our worker nodes to have the resources for the highest
// common multiple for the system requirements of the labs").
func Tags() string {
	var sb strings.Builder
	sb.WriteString("== D6: tag-aware dispatch vs max-spec fleet (§VI-A) ==\n\n")

	// Job mix from Table II course usage: most jobs are plain CUDA labs;
	// a small share needs MPI + 2 GPUs.
	const totalJobs = 1000.0
	const mpiShare = 0.05
	const plainCostPerHour = 1.0 // 1-GPU node
	const bigCostPerHour = 2.6   // 2-GPU node with MPI image
	const jobsPerNodeHour = 30.0

	plainJobs := totalJobs * (1 - mpiShare)
	mpiJobs := totalJobs * mpiShare

	// Max-spec: every worker is a big node.
	maxSpecHours := (plainJobs + mpiJobs) / jobsPerNodeHour
	maxSpecCost := maxSpecHours * bigCostPerHour

	// Tagged: plain nodes for plain jobs, big nodes only for MPI jobs.
	taggedCost := plainJobs/jobsPerNodeHour*plainCostPerHour + mpiJobs/jobsPerNodeHour*bigCostPerHour

	fmt.Fprintf(&sb, "job mix: %.0f plain CUDA jobs, %.0f MPI/multi-GPU jobs\n\n", plainJobs, mpiJobs)
	fmt.Fprintf(&sb, "%-28s %-14s %s\n", "fleet", "node-hours", "cost (relative $)")
	fmt.Fprintf(&sb, "%-28s %-14.1f %.1f\n", "max-spec (all 2-GPU+MPI)", maxSpecHours, maxSpecCost)
	fmt.Fprintf(&sb, "%-28s %-14.1f %.1f\n", "tagged mixed fleet", maxSpecHours, taggedCost)
	fmt.Fprintf(&sb, "\ntagged dispatch saves %.0f%% of fleet cost for this mix\n",
		100*(1-taggedCost/maxSpecCost))

	// And it works: demonstrated live in Figure 6's tag routing.
	sb.WriteString("(functional demonstration: Figure 6's tag routing)\n")
	return sb.String()
}

// ---- D7: limits --------------------------------------------------------------------------------

// Limits demonstrates the fairness controls of §III-C: the submission
// rate limit and the execution time limit.
func Limits() string {
	var sb strings.Builder
	sb.WriteString("== D7: submission-rate and execution-time limits (§III-C) ==\n\n")

	// Rate limit: an abusive client hammers submit.
	clk := clock.NewManual(time.Unix(0, 0))
	rl := sandbox.Limits{SubmitInterval: 10 * time.Second}.SubmitLimiter(clk)
	admitted, rejected := 0, 0
	for i := 0; i < 60; i++ {
		if rl.Take("abuser") == 0 {
			admitted++
		} else {
			rejected++
		}
		clk.Advance(time.Second)
	}
	fmt.Fprintf(&sb, "60 submissions in 60s against a 10s interval: %d admitted, %d rejected\n",
		admitted, rejected)

	// Execution limit: an infinite loop is cut off deterministically.
	spin := `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  float x = 0.0f;
  while (1) { x += 1.0f; }
  out[0] = x;
}`
	o := labs.Run(context.Background(), labs.ByID("vector-add"), spin, 0, labs.NewDeviceSet(1), 100000)
	fmt.Fprintf(&sb, "infinite-loop kernel: compiled=%v, runtime error: %s\n", o.Compiled, o.RuntimeError)

	// The limits enforced, and where; one set holds for every lab.
	l := sandbox.DefaultLimits()
	fmt.Fprintf(&sb, "\nenforced limits, the same for every lab: compile %v per job (worker),\n", l.CompileTimeout)
	fmt.Fprintf(&sb, "%d steps per thread per launch, %dKB of run log per dataset (worker),\n",
		l.MaxSteps, l.MaxOutputBytes/1024)
	fmt.Fprintf(&sb, "one submission per %v per user (web tier)\n", l.SubmitInterval)
	return sb.String()
}

// ---- P1: tiling ----------------------------------------------------------------------------------

// Tiling runs the basic and the tiled matrix multiply of the course labs
// on one 64x64 product and prints the counters the tiling lecture predicts.
func Tiling() string {
	var sb strings.Builder
	sb.WriteString("== P1: tiled vs basic matrix multiply on the cost model ==\n\n")
	const n, tile = 64, 16
	a, b := make([]float32, n*n), make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) - 3
		b[i] = float32(i%5) * 0.5
	}
	want := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				want[i*n+j] += a[i*n+k] * b[k*n+j]
			}
		}
	}
	dev := gpusim.NewDefaultDevice()
	aP, _ := dev.MallocFloat32(n*n, a)
	bP, _ := dev.MallocFloat32(n*n, b)
	cP, _ := dev.Malloc(n * n * 4)

	cm := gpusim.CostParams()
	fmt.Fprintf(&sb, "%dx%d matrices, %dx%d thread blocks (TILE_WIDTH = %d)\n", n, n, tile, tile, tile)
	fmt.Fprintf(&sb, "cost model: %d-byte global segments at %d cycles, shared accesses at %d cycles over %d banks\n\n",
		cm.SegmentBytes, cm.LatGlobalTx, cm.LatSharedTx, cm.NumBanks)
	fmt.Fprintf(&sb, "%-7s %-8s %-13s %-15s %-11s %s\n",
		"kernel", "result", "global loads", "global tx", "shared ops", "sim cycles")
	var stats []*gpusim.LaunchStats
	for _, k := range []struct{ name, lab, kernel string }{
		{"basic", "basic-matmul", "matrixMultiply"},
		{"tiled", "tiled-matmul", "matrixMultiplyShared"},
	} {
		prog, err := minicuda.Compile(labs.ByID(k.lab).Reference, minicuda.DialectCUDA)
		if err != nil {
			return sb.String() + "ERROR: " + err.Error() + "\n"
		}
		st, err := prog.Launch(dev, k.kernel,
			minicuda.LaunchOpts{Grid: gpusim.D2(n/tile, n/tile), Block: gpusim.D2(tile, tile)},
			minicuda.FloatPtr(aP), minicuda.FloatPtr(bP), minicuda.FloatPtr(cP),
			minicuda.Int(n), minicuda.Int(n), minicuda.Int(n))
		if err != nil {
			return sb.String() + "ERROR: " + err.Error() + "\n"
		}
		got, err := dev.ReadFloat32(cP, n*n)
		if err != nil {
			return sb.String() + "ERROR: " + err.Error() + "\n"
		}
		result := "WRONG"
		if wb.CompareFloats(got, want, wb.DefaultTolerance).Correct {
			result = "correct"
		}
		fmt.Fprintf(&sb, "%-7s %-8s %-13d %-15d %-11d %d\n",
			k.name, result, st.GlobalLoads, st.GlobalTx, st.SharedOps, st.SimCycles)
		stats = append(stats, st)
	}
	fmt.Fprintf(&sb, "\ntiling cuts global transactions %.1fx and simulated cycles %.1fx\n",
		float64(stats[0].GlobalTx)/float64(stats[1].GlobalTx),
		float64(stats[0].SimCycles)/float64(stats[1].SimCycles))
	fmt.Fprintf(&sb, "(the ideal global-traffic cut is TILE_WIDTH = %dx)\n", tile)
	return sb.String()
}
