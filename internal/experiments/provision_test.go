package experiments

import (
	"testing"
	"time"

	"webgpu/internal/workload"
)

func courseArrivals() ([]float64, time.Time) {
	m := workload.Figure1Model()
	series := m.HourlySeries()
	return workload.SubmissionArrivals(series, 2.0), m.Start
}

const svcRate = 30.0 // jobs per worker per hour

func TestStaticPolicy(t *testing.T) {
	arr, start := courseArrivals()
	res := simulate(arr, start, svcRate, static{N: 8})
	if res.Policy != "static" {
		t.Errorf("name = %s", res.Policy)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.WorkerHours != float64(8*len(arr)) || res.PeakWorkers != 8 {
		t.Errorf("static workers drifted: worker-hours=%v over %d hours, peak=%d",
			res.WorkerHours, len(arr), res.PeakWorkers)
	}
}

// The paper's core provisioning claim (§II-C): a static fleet sized for
// the course start is mostly idle by the end; elastic scaling delivers
// comparable latency for far fewer worker-hours.
func TestElasticBeatsStaticOnCost(t *testing.T) {
	arr, start := courseArrivals()

	// Static sized for the peak hour.
	peak := 0.0
	for _, a := range arr {
		if a > peak {
			peak = a
		}
	}
	staticN := int(peak/svcRate) + 1
	fixed := simulate(arr, start, svcRate, static{N: staticN})

	elastic := simulate(arr, start, svcRate, reactive{
		PerWorkerPerHour: svcRate, TargetHours: 1, Min: 1, Max: staticN,
	})

	if elastic.WorkerHours >= fixed.WorkerHours {
		t.Errorf("reactive worker-hours %.0f >= static %.0f", elastic.WorkerHours, fixed.WorkerHours)
	}
	// Large saving: the decay + weekly cycle leaves static mostly idle.
	if elastic.WorkerHours > 0.5*fixed.WorkerHours {
		t.Errorf("elastic saving too small: %.0f vs %.0f worker-hours",
			elastic.WorkerHours, fixed.WorkerHours)
	}
	// And latency stays acceptable.
	if elastic.P95WaitHours > fixed.P95WaitHours+1.5 {
		t.Errorf("reactive p95 wait %.2fh vs static %.2fh", elastic.P95WaitHours, fixed.P95WaitHours)
	}
	if elastic.UtilizationPct <= fixed.UtilizationPct {
		t.Errorf("reactive utilization %.1f%% <= static %.1f%%",
			elastic.UtilizationPct, fixed.UtilizationPct)
	}
}

// The paper's actual practice: scale up the day before the deadline.
func TestScheduledBoostHelpsDeadlineDay(t *testing.T) {
	arr, start := courseArrivals()
	base := simulate(arr, start, svcRate, static{N: 2})
	sched := simulate(arr, start, svcRate, scheduled{
		Base: 2, Boost: 8,
		BoostDays: map[time.Weekday]bool{time.Wednesday: true, time.Thursday: true},
	})
	if sched.P95WaitHours >= base.P95WaitHours {
		t.Errorf("scheduled p95 %.2f >= base %.2f", sched.P95WaitHours, base.P95WaitHours)
	}
	// The boost costs far less than running 8 workers all week.
	alwaysBig := simulate(arr, start, svcRate, static{N: 8})
	if sched.WorkerHours >= alwaysBig.WorkerHours {
		t.Errorf("scheduled cost %.0f >= always-big %.0f", sched.WorkerHours, alwaysBig.WorkerHours)
	}
}

func TestHybridTakesMax(t *testing.T) {
	h := hybrid{
		Sched:    scheduled{Base: 2, Boost: 10, BoostDays: map[time.Weekday]bool{time.Wednesday: true}},
		Reactive: reactive{PerWorkerPerHour: svcRate, TargetHours: 1, Min: 1, Max: 50},
	}
	wed := observation{Time: time.Date(2015, 2, 18, 12, 0, 0, 0, time.UTC), Backlog: 0}
	if got := h.Decide(wed); got != 10 {
		t.Errorf("wednesday decide = %d", got)
	}
	mondayRush := observation{Time: time.Date(2015, 2, 16, 12, 0, 0, 0, time.UTC), Backlog: 900}
	if got := h.Decide(mondayRush); got <= 10 {
		t.Errorf("rush decide = %d, want reactive > 10", got)
	}
}

func TestReactiveBounds(t *testing.T) {
	r := reactive{PerWorkerPerHour: 10, TargetHours: 1, Min: 2, Max: 5}
	if got := r.Decide(observation{Backlog: 0}); got != 2 {
		t.Errorf("idle decide = %d, want Min", got)
	}
	if got := r.Decide(observation{Backlog: 10000}); got != 5 {
		t.Errorf("overload decide = %d, want Max", got)
	}
}

func TestSimulateConservation(t *testing.T) {
	arr := []float64{10, 10, 10, 0, 0, 0, 0, 0}
	res := simulate(arr, time.Unix(0, 0), 5, static{N: 2})
	if res.Completed+res.Dropped != 30 {
		t.Errorf("jobs lost: completed %d + dropped %d != 30", res.Completed, res.Dropped)
	}
}

func TestZeroWorkersDropsEverything(t *testing.T) {
	arr := []float64{5, 5}
	res := simulate(arr, time.Unix(0, 0), 10, static{N: 0})
	if res.Completed != 0 || res.Dropped != 10 {
		t.Errorf("res = %+v", res)
	}
}

// ---- the HPC-cluster baseline ----

func TestClusterSimulateConservation(t *testing.T) {
	arr := []float64{20, 20, 0, 0}
	res := campusCluster(4).simulate(arr)
	if res.Completed+res.Dropped != 40 {
		t.Errorf("jobs lost: %d + %d != 40", res.Completed, res.Dropped)
	}
}

func TestSchedulerLatencyAddsToEveryJob(t *testing.T) {
	c := campusCluster(100) // ample capacity: waits are pure overhead
	res := c.simulate([]float64{10, 10})
	if res.MeanWaitHours < c.SchedIntervalHours {
		t.Errorf("mean wait %.3f < scheduler latency %.3f", res.MeanWaitHours, c.SchedIntervalHours)
	}
}

func TestExternalLoadReducesCapacity(t *testing.T) {
	arr, _ := courseArrivals()
	quiet := campusCluster(4)
	quiet.ExternalLoad = 0
	busy := campusCluster(4)
	busy.ExternalLoad = 0.8
	rq := quiet.simulate(arr)
	rb := busy.simulate(arr)
	if rb.P95WaitHours <= rq.P95WaitHours {
		t.Errorf("busy cluster p95 %.2f <= quiet %.2f", rb.P95WaitHours, rq.P95WaitHours)
	}
}

func TestSizeForPeak(t *testing.T) {
	arr, _ := courseArrivals()
	c := campusCluster(0)
	n := c.sizeForPeak(arr)
	if n <= 0 {
		t.Fatalf("n = %d", n)
	}
	c.Nodes = n
	res := c.simulate(arr)
	if res.Dropped > res.Completed/100 {
		t.Errorf("peak-sized cluster dropped %d of %d", res.Dropped, res.Completed)
	}
}

// The D2 comparison: the peak-provisioned static cluster is mostly idle
// over the course (enrollment decay), while WebGPU's reactive fleet keeps
// utilization high at similar latency.
func TestClusterIdleVsElasticWebGPU(t *testing.T) {
	arr, start := courseArrivals()
	c := campusCluster(0)
	c.Nodes = c.sizeForPeak(arr)
	clusterRes := c.simulate(arr)

	elastic := simulate(arr, start, 30,
		reactive{PerWorkerPerHour: 30, TargetHours: 1, Min: 1, Max: 100})

	if clusterRes.UtilizationPct >= elastic.UtilizationPct {
		t.Errorf("cluster utilization %.1f%% >= elastic %.1f%%",
			clusterRes.UtilizationPct, elastic.UtilizationPct)
	}
	if clusterRes.UtilizationPct > 30 {
		t.Errorf("peak-provisioned shared cluster should be mostly idle, got %.1f%%",
			clusterRes.UtilizationPct)
	}
}
