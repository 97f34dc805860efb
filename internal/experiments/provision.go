package experiments

import (
	"math"
	"sort"
	"time"
)

// The provisioning model behind D1 and D2. §II-C: "a
// statically-provisioned computing resource large enough for the
// beginning of the course will be mostly idle by the end"; §III: "We
// increased the number of GPUs available to WebGPU the day before the
// deadline" (the scheduled policy); the v2 poll model enables fully
// reactive scaling (§VI-A). The traditional alternative (§II-B option 3)
// is a shared campus batch cluster: a fixed fleet the course only gets a
// share of, and a scheduler's dispatch latency on every job.

// observation is what a policy sees each tick (one hour).
type observation struct {
	Time        time.Time
	Backlog     int     // jobs waiting
	ArrivalRate float64 // jobs that arrived this tick
}

// policy decides the worker count for the next tick.
type policy interface {
	Name() string
	Decide(obs observation) int
}

// static keeps a fixed fleet — the traditional provisioning the paper
// argues against.
type static struct {
	N int
}

func (s static) Name() string           { return "static" }
func (s static) Decide(observation) int { return s.N }

// reactive sizes the fleet so the backlog clears within TargetHours at
// the per-worker throughput, within [Min, Max].
type reactive struct {
	PerWorkerPerHour float64
	TargetHours      float64
	Min, Max         int
}

func (r reactive) Name() string { return "reactive" }

func (r reactive) Decide(obs observation) int {
	load := float64(obs.Backlog) + obs.ArrivalRate
	want := int(math.Ceil(load / (r.PerWorkerPerHour * math.Max(r.TargetHours, 1e-9))))
	if want < r.Min {
		want = r.Min
	}
	if r.Max > 0 && want > r.Max {
		want = r.Max
	}
	return want
}

// scheduled runs Base workers normally and Boost workers on the listed
// weekdays — the paper's manual "day before the deadline" scale-up.
type scheduled struct {
	Base, Boost int
	BoostDays   map[time.Weekday]bool
}

func (s scheduled) Name() string { return "scheduled" }

func (s scheduled) Decide(obs observation) int {
	if s.BoostDays[obs.Time.Weekday()] {
		return s.Boost
	}
	return s.Base
}

// hybrid takes the max of a schedule and a reactive floor: the scheduled
// boost handles the known deadline rush, the reactive part absorbs
// surprises.
type hybrid struct {
	Sched    scheduled
	Reactive reactive
}

func (h hybrid) Name() string { return "hybrid" }

func (h hybrid) Decide(obs observation) int {
	return max(h.Sched.Decide(obs), h.Reactive.Decide(obs))
}

// simResult summarizes one simulated course.
type simResult struct {
	Policy         string
	Completed      int
	Dropped        int // jobs still queued at course end
	WorkerHours    float64
	MeanWaitHours  float64
	P95WaitHours   float64
	PeakWorkers    int
	UtilizationPct float64 // busy worker-hours / provisioned worker-hours
}

// simulate runs a dedicated fleet resized by p each tick.
func simulate(arrivals []float64, start time.Time, perWorkerPerHour float64, p policy) simResult {
	return queueSim(arrivals, start, perWorkerPerHour, 1, 0, p)
}

// queueSim is the hourly FIFO queue: arrivals[t] jobs arrive at tick t,
// the policy sizes the fleet, and each worker serves share ×
// perWorkerPerHour of the course's jobs that tick. A job's wait is the
// hours from its arrival to the tick that serves it, plus latencyHours.
func queueSim(arrivals []float64, start time.Time, perWorkerPerHour, share, latencyHours float64, p policy) simResult {
	res := simResult{Policy: p.Name()}
	var queue []int // arrival tick of each waiting job
	var waits []float64
	var busyHours float64
	carry := 0.0 // fractional arrivals carried between ticks

	for t := 0; t < len(arrivals); t++ {
		carry += arrivals[t]
		n := int(carry)
		carry -= float64(n)
		for i := 0; i < n; i++ {
			queue = append(queue, t)
		}

		workers := max(p.Decide(observation{
			Time:        start.Add(time.Duration(t) * time.Hour),
			Backlog:     len(queue),
			ArrivalRate: arrivals[t],
		}), 0)
		res.WorkerHours += float64(workers)
		res.PeakWorkers = max(res.PeakWorkers, workers)

		served := min(int(float64(workers)*share*perWorkerPerHour), len(queue))
		for _, arrived := range queue[:served] {
			waits = append(waits, float64(t-arrived)+latencyHours)
		}
		busyHours += float64(served) / math.Max(perWorkerPerHour, 1e-9)
		queue = queue[served:]
	}

	res.Completed = len(waits)
	res.Dropped = len(queue)
	if res.WorkerHours > 0 {
		res.UtilizationPct = 100 * busyHours / res.WorkerHours
	}
	if len(waits) > 0 {
		var sum float64
		for _, w := range waits {
			sum += w
		}
		res.MeanWaitHours = sum / float64(len(waits))
		sort.Float64s(waits)
		res.P95WaitHours = waits[int(0.95*float64(len(waits)-1))]
	}
	return res
}

// hpcCluster is the shared campus batch cluster of §II-B: a static node
// count, most of it busy with research jobs and the rest capped by
// fair-share, and a batch scheduler whose dispatch interval every job
// pays — scheduling latency of little pedagogical value, and peak
// provisioning that sits idle once enrollment decays.
type hpcCluster struct {
	Nodes              int
	JobsPerNodePerHour float64 // service rate for course jobs
	ExternalLoad       float64 // fraction of the cluster busy with research jobs (0..1)
	SchedIntervalHours float64 // batch scheduler dispatch latency added to every job
	FairShareCap       float64 // max fraction of the cluster the course may use (0..1]
}

// campusCluster mirrors a mid-2010s shared campus cluster.
func campusCluster(nodes int) hpcCluster {
	return hpcCluster{
		Nodes:              nodes,
		JobsPerNodePerHour: 60,
		ExternalLoad:       0.5,
		SchedIntervalHours: 0.1, // ~6 minutes of scheduling/launch overhead
		FairShareCap:       0.5,
	}
}

// share is the fraction of each node's hour the course gets.
func (c hpcCluster) share() float64 { return math.Min(1-c.ExternalLoad, c.FairShareCap) }

// simulate pushes the hourly arrival series through the cluster; its
// WorkerHours are the provisioned node-hours.
func (c hpcCluster) simulate(arrivals []float64) simResult {
	return queueSim(arrivals, time.Time{}, c.JobsPerNodePerHour, c.share(), c.SchedIntervalHours, static{N: c.Nodes})
}

// sizeForPeak returns the node count needed to keep up with the peak
// arrival rate — what static provisioning must buy.
func (c hpcCluster) sizeForPeak(arrivals []float64) int {
	perNode := c.JobsPerNodePerHour * c.share()
	if perNode <= 0 {
		return 0
	}
	peak := 0.0
	for _, a := range arrivals {
		peak = math.Max(peak, a)
	}
	return int(math.Ceil(peak / perNode))
}
