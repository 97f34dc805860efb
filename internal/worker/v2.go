package worker

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/faultinject"
	"webgpu/internal/queue"
	"webgpu/internal/trace"
)

// v2 architecture (§VI, Figures 6-7): workers *poll* the message broker
// for jobs matching their capabilities, execute them in pooled
// containers, and publish results back. This pull model is what lets the
// fleet autoscale freely — the web tier never needs to know which workers
// exist.

// Topics used on the broker.
const (
	TopicJobs    = "jobs"
	TopicResults = "results"
)

// DefaultVisibility is the job lease duration: a worker that dies
// mid-job loses its lease and the job is redelivered elsewhere.
const DefaultVisibility = 2 * time.Minute

// pollBackoff is how long a driver sleeps after a failed poll before it
// polls again; an empty poll waits for the broker's wake-up instead.
const pollBackoff = 5 * time.Millisecond

// Driver is the v2 worker main loop (Figure 7 item 4).
type Driver struct {
	node       *Node
	broker     *queue.Broker
	faults     *faultinject.Registry
	visibility time.Duration
	stopCh     chan struct{}
	doneCh     chan struct{}
	started    atomic.Bool

	jobsDone atomic.Int64
	crashes  atomic.Int64 // injected mid-job crashes (abandoned leases)
}

// NewDriver wires a node to a broker; each job it polls is leased for
// visibility.
func NewDriver(node *Node, broker *queue.Broker, visibility time.Duration) *Driver {
	return &Driver{
		node:       node,
		broker:     broker,
		visibility: visibility,
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
}

// SetFaults attaches a fault-injection registry to the driver's own fault
// points (crashes around publish/ack). Must be called before Start.
func (d *Driver) SetFaults(r *faultinject.Registry) { d.faults = r }

// Start launches the polling loop.
func (d *Driver) Start() {
	if d.started.CompareAndSwap(false, true) {
		go d.loop()
	}
}

// Stop terminates the loop and waits for it to exit.
func (d *Driver) Stop() {
	if !d.started.Load() {
		return
	}
	select {
	case <-d.stopCh:
	default:
		close(d.stopCh)
	}
	<-d.doneCh
}

// JobsDone reports how many jobs this driver completed.
func (d *Driver) JobsDone() int64 { return d.jobsDone.Load() }

func (d *Driver) loop() {
	defer close(d.doneCh)
	caps := d.node.Capabilities()
	wokenBy := "" // "publish" when the broker woke this driver for its poll
	for {
		select {
		case <-d.stopCh:
			return
		default:
		}
		// The wake channel is taken before the poll: a job that becomes
		// visible after an empty poll has already closed it.
		wake := d.broker.Wait(TopicJobs)
		delivery, ok, err := d.broker.Poll(TopicJobs, d.node.ID, caps, d.visibility)
		if err != nil {
			if errors.Is(err, queue.ErrClosed) {
				// The broker is gone: nothing is left to poll.
				return
			}
			// Transient poll failure (network blip, injected fault): back
			// off and retry rather than dying.
			time.Sleep(pollBackoff)
			continue
		}
		if !ok {
			// Idle: the broker closes wake when a job becomes visible (a
			// publish, a nack, an expired lease) or when it closes.
			select {
			case <-wake:
				wokenBy = "publish"
				d.node.Metrics().Inc("driver_wakeups", 1)
			case <-d.stopCh:
				return
			}
			continue
		}
		pickup := wokenBy
		wokenBy = ""
		job, derr := DecodeJob(delivery.Msg.Payload)
		if derr != nil {
			_ = delivery.Nack() // poison message heads to the DLQ
			continue
		}
		// The trace ID rides the job; the driver collects the worker-side
		// spans locally and ships them back on the result for the web
		// tier to merge.
		var tr *trace.Trace
		if job.TraceID != "" {
			tr = trace.New(job.TraceID)
		}
		// Broker wait ends at dequeue (not after execution, which used to
		// fold the run itself into the queue-wait figure); the node adds
		// its own admission wait inside Execute. wake is publish when the
		// broker woke this driver for the job; it is absent when the
		// driver came straight from its previous job and the message
		// waited for a driver.
		brokerWait := tr.StageAt(delivery.Msg.Enqueued, clock.Real, nil, "", "queue_wait",
			"worker", d.node.ID, "attempts", strconv.Itoa(delivery.Msg.Attempts), "wake", pickup).End()
		res := d.node.Execute(trace.NewContext(context.Background(), tr), job)
		res.QueueWait += brokerWait
		res.Attempt = delivery.Msg.Attempts
		res.Spans = tr.Spans()
		if res.Transient {
			// Infrastructure failure, not a verdict on the submission:
			// nack so a later attempt (possibly elsewhere) retries; the
			// broker dead-letters it after too many attempts.
			_ = delivery.Nack()
			d.node.Metrics().Inc("driver_transient_nacks", 1)
			continue
		}
		if d.faults.Fire(faultinject.PointDriverCrashBeforeAck) != nil {
			// Simulated crash with the result still local: the lease
			// expires unacked and the job is redelivered elsewhere.
			d.crashes.Add(1)
			continue
		}
		if err := d.faults.Fire(faultinject.PointDriverPublishResult); err != nil {
			_ = delivery.Nack()
			continue
		}
		if _, err := d.broker.Publish(TopicResults, EncodeResult(res)); err != nil {
			_ = delivery.Nack()
			continue
		}
		if d.faults.Fire(faultinject.PointDriverCrashAfterPublish) != nil {
			// Simulated crash after the result publish but before the ack:
			// the job redelivers and a duplicate result will be published —
			// the at-least-once hole the platform's result router closes.
			d.crashes.Add(1)
			continue
		}
		// A failed ack leaves the lease to expire; at-least-once delivery
		// turns that into a redelivery plus a duplicate result downstream.
		_ = delivery.Ack()
		d.jobsDone.Add(1)
		d.node.Metrics().Inc("driver_jobs", 1)
	}
}

// Fleet manages a set of v2 drivers, the unit the autoscaler adds and
// removes.
type Fleet struct {
	mu         sync.Mutex
	broker     *queue.Broker
	faults     *faultinject.Registry
	visibility time.Duration
	nextID     int
	drivers    map[string]*Driver
	mkNode     func(id string) *Node
}

// NewFleet creates an empty fleet whose drivers lease each job for
// visibility (0 means DefaultVisibility); mkNode builds each new worker
// node (nil uses DefaultNodeConfig).
func NewFleet(broker *queue.Broker, visibility time.Duration, mkNode func(id string) *Node) *Fleet {
	if visibility <= 0 {
		visibility = DefaultVisibility
	}
	if mkNode == nil {
		mkNode = func(id string) *Node { return NewNode(DefaultNodeConfig(id)) }
	}
	return &Fleet{broker: broker, visibility: visibility, drivers: map[string]*Driver{}, mkNode: mkNode}
}

// SetFaults attaches a fault-injection registry to drivers started by
// later Scale calls.
func (f *Fleet) SetFaults(r *faultinject.Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = r
}

// Scale adjusts the fleet to n workers, starting or stopping drivers.
func (f *Fleet) Scale(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.drivers) < n {
		f.nextID++
		id := nodeID(f.nextID)
		d := NewDriver(f.mkNode(id), f.broker, f.visibility)
		d.SetFaults(f.faults)
		f.drivers[id] = d
		d.Start()
	}
	for id, d := range f.drivers {
		if len(f.drivers) <= n {
			break
		}
		d.Stop()
		delete(f.drivers, id)
	}
}

func nodeID(n int) string {
	// %03d, not per-digit rune arithmetic: the old encoding produced
	// garbage IDs ("worker-:00") once a long-lived fleet's counter
	// passed 999.
	return fmt.Sprintf("worker-%03d", n)
}

// Size reports the current fleet size.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.drivers)
}

// Stop stops every driver.
func (f *Fleet) Stop() { f.Scale(0) }
