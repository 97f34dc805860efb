// Package chaostest is the seeded chaos soak harness for the job
// pipeline: it pushes a batch of real compile/run jobs through the
// broker and a driver fleet while injecting faults — failed publishes,
// failed acks, worker crashes around the ack, transient compile/exec
// failures, worker churn — and then checks the at-least-once invariants:
//
//   - every job reaches exactly one terminal outcome (graded once, or
//     parked in the dead-letter queue until an operator redrive);
//   - no result is ever counted twice (duplicates from redelivery are
//     detected and dropped);
//   - the broker's conservation invariant holds: published = acked +
//     dead + inflight + visible (Broker.Unaccounted() == 0).
//
// Every random decision flows from Scenario.Seed, so a failing run is
// replayed by re-running with the seed the error message reports.
package chaostest

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/labs"
	"webgpu/internal/queue"
	"webgpu/internal/worker"
)

// Scenario configures one chaos soak run.
type Scenario struct {
	Seed         int64
	Jobs         int           // jobs to push through the pipeline
	Workers      int           // worker nodes / drivers
	FaultRate    float64       // base per-evaluation fault probability
	Visibility   time.Duration // job lease (short = fast redelivery)
	PollInterval time.Duration // driver poll cadence
	Timeout      time.Duration // overall deadline for the soak
	KillWorkers  bool          // churn the pool while jobs are in flight
	MaxAttempts  int           // dead-letter threshold (0 = broker default)
}

// withDefaults fills unset fields with soak-friendly values.
func (s Scenario) withDefaults() Scenario {
	if s.Jobs <= 0 {
		s.Jobs = 100
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.FaultRate <= 0 {
		s.FaultRate = 0.1
	}
	if s.Visibility <= 0 {
		s.Visibility = 150 * time.Millisecond
	}
	if s.PollInterval <= 0 {
		s.PollInterval = time.Millisecond
	}
	if s.Timeout <= 0 {
		s.Timeout = 60 * time.Second
	}
	return s
}

// Report summarises a soak run: what the chaos did and how the system
// absorbed it.
type Report struct {
	Seed         int64
	Jobs         int
	Graded       int   // jobs with exactly one accepted result
	Duplicates   int64 // redelivered results dropped by dedup
	DeadLettered int64 // cumulative dead-letter entries during chaos
	Redriven     int   // dead letters requeued once faults stopped
	Faults       string
}

func (r Report) String() string {
	return fmt.Sprintf("seed=%d jobs=%d graded=%d dups=%d dead=%d redriven=%d",
		r.Seed, r.Jobs, r.Graded, r.Duplicates, r.DeadLettered, r.Redriven)
}

// chaosLab is the lab every soak job runs; its reference solution
// compiles and grades quickly.
const chaosLab = "vector-add"

func chaosJob(i int) *worker.Job {
	l := labs.ByID(chaosLab)
	return &worker.Job{
		ID:        fmt.Sprintf("chaos-%04d", i),
		LabID:     l.ID,
		UserID:    fmt.Sprintf("u%03d", i%7),
		Source:    l.Reference,
		DatasetID: 0,
	}
}

// fail builds a replayable error: the seed and the fault registry's
// fired/evaluated summary ride along.
func fail(s Scenario, reg *faultinject.Registry, format string, args ...interface{}) error {
	return fmt.Errorf("%s (replay with seed=%d; %s)",
		fmt.Sprintf(format, args...), s.Seed, reg.String())
}

// armV2 enables the v2 fault points at probabilities derived from the
// scenario's base rate.
func armV2(reg *faultinject.Registry, rate float64) {
	reg.Enable(faultinject.PointQueuePublish, faultinject.Fault{Prob: rate * 0.5})
	reg.Enable(faultinject.PointQueueAck, faultinject.Fault{Prob: rate * 0.5})
	reg.Enable(faultinject.PointQueuePoll, faultinject.Fault{Prob: rate * 0.2})
	reg.Enable(faultinject.PointDriverCrashBeforeAck, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointDriverCrashAfterPublish, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointDriverPublishResult, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointNodeCompile, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointNodeExec, faultinject.Fault{Prob: rate * 0.5})
}

// RunV2 soaks the broker architecture. Phase 1 runs with faults armed
// until every job is terminal — graded at least once or dead-lettered.
// Phase 2 stops the chaos, redrives the dead letters, and drains the
// pipeline, after which every job must be graded exactly once and the
// broker's counters must balance.
func RunV2(s Scenario) (Report, error) {
	s = s.withDefaults()
	reg := faultinject.New(s.Seed)
	rep := Report{Seed: s.Seed, Jobs: s.Jobs}
	deadline := time.Now().Add(s.Timeout)

	broker := queue.NewBroker()
	broker.SetFaults(reg)
	if s.MaxAttempts > 0 {
		broker.SetMaxAttempts(s.MaxAttempts)
	}
	defer broker.Close()

	cfgSrv := worker.NewConfigServer(worker.Config{
		PollInterval: s.PollInterval,
		Visibility:   s.Visibility,
	})
	fleet := worker.NewFleet(broker, cfgSrv, func(id string) *worker.Node {
		cfg := worker.DefaultNodeConfig(id)
		cfg.Faults = reg
		return worker.NewNode(cfg)
	})
	fleet.SetFaults(reg)
	fleet.Scale(s.Workers)
	defer fleet.Stop()

	// Result consumer: dedups by job ID so each job grades exactly once
	// no matter how many times redelivery re-executed it. A short lease
	// keeps failed acks (injected) from stalling the drain.
	var (
		mu     sync.Mutex
		graded = map[string]int{}
	)
	dedup := worker.NewResultDedup(0)
	consumerDone := make(chan struct{})
	consumerStop := make(chan struct{})
	go func() {
		defer close(consumerDone)
		caps := map[string]bool{}
		for {
			select {
			case <-consumerStop:
				return
			default:
			}
			d, ok, err := broker.Poll(worker.TopicResults, "chaos-consumer", caps, 200*time.Millisecond)
			if err != nil {
				// ErrClosed only happens at teardown; injected poll faults
				// are transient either way.
				time.Sleep(time.Millisecond)
				continue
			}
			if !ok {
				time.Sleep(time.Millisecond)
				continue
			}
			res, derr := worker.DecodeResult(d.Msg.Payload)
			if derr != nil {
				_ = d.Nack()
				continue
			}
			if dedup.Accept(res.JobID, res.Attempt) {
				mu.Lock()
				graded[res.JobID]++
				mu.Unlock()
			}
			_ = d.Ack() // a failed ack redelivers; dedup drops the rerun
		}
	}()
	defer func() {
		close(consumerStop)
		<-consumerDone
	}()

	// Optional worker churn: repeatedly kill one driver and replace it,
	// on a cadence drawn from the scenario seed.
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	if s.KillWorkers {
		churn := rand.New(rand.NewSource(s.Seed ^ 0x5DEECE66D))
		go func() {
			defer close(churnDone)
			for {
				pause := time.Duration(20+churn.Intn(60)) * time.Millisecond
				select {
				case <-churnStop:
					return
				case <-time.After(pause):
				}
				fleet.Scale(s.Workers - 1)
				fleet.Scale(s.Workers)
			}
		}()
	} else {
		close(churnDone)
	}
	stopChurn := func() {
		select {
		case <-churnStop:
		default:
			close(churnStop)
		}
		<-churnDone
	}
	defer stopChurn()

	// Phase 1: submit under fire. Publishes themselves can fail, so
	// submission retries until the broker takes each job.
	armV2(reg, s.FaultRate)
	for i := 0; i < s.Jobs; i++ {
		job := chaosJob(i)
		for {
			_, err := broker.Publish(worker.TopicJobs, worker.EncodeJob(job))
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return rep, fail(s, reg, "chaos v2: publish of %s never succeeded", job.ID)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Wait until every job is terminal: graded, or parked in the DLQ.
	for {
		mu.Lock()
		done := len(graded)
		mu.Unlock()
		terminal := map[string]bool{}
		for _, m := range broker.DeadLetters() {
			if j, err := worker.DecodeJob(m.Payload); err == nil {
				terminal[j.ID] = true
			}
		}
		mu.Lock()
		for id := range graded {
			terminal[id] = true
		}
		mu.Unlock()
		if len(terminal) >= s.Jobs {
			break
		}
		if time.Now().After(deadline) {
			return rep, fail(s, reg, "chaos v2: only %d/%d jobs terminal (graded=%d, dead=%d)",
				len(terminal), s.Jobs, done, len(broker.DeadLetters()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep.DeadLettered = broker.Stats().DeadLetters

	// Phase 2: stop the chaos, redrive the dead letters, drain. The
	// conservation check below would be meaningless while faults still
	// fire, and worker churn could strand a lease right at the deadline.
	stopChurn()
	reg.DisableAll()
	for {
		// Keep redriving: a job that was mid-flight at the phase switch
		// can still trickle into the DLQ after the first redrive.
		rep.Redriven += broker.RedriveDeadLetters()
		mu.Lock()
		done := len(graded)
		mu.Unlock()
		if done >= s.Jobs &&
			broker.Depth(worker.TopicJobs) == 0 &&
			broker.Depth(worker.TopicResults) == 0 &&
			len(broker.DeadLetters()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return rep, fail(s, reg, "chaos v2: drain stalled: graded=%d/%d, jobs depth=%d, results depth=%d, dead=%d",
				done, s.Jobs, broker.Depth(worker.TopicJobs), broker.Depth(worker.TopicResults),
				len(broker.DeadLetters()))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Invariants.
	mu.Lock()
	rep.Graded = len(graded)
	for id, n := range graded {
		if n != 1 {
			mu.Unlock()
			return rep, fail(s, reg, "chaos v2: job %s graded %d times", id, n)
		}
	}
	mu.Unlock()
	rep.Duplicates = dedup.Duplicates()
	if rep.Graded != s.Jobs {
		return rep, fail(s, reg, "chaos v2: graded %d of %d jobs", rep.Graded, s.Jobs)
	}
	if u := broker.Unaccounted(); u != 0 {
		return rep, fail(s, reg, "chaos v2: broker counters unbalanced by %d (positive = lost, negative = double-counted)", u)
	}
	rep.Faults = reg.String()
	return rep, nil
}
