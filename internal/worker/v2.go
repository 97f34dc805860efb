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
// containers, and publish results back. Each worker watches a remote
// configuration service; a config change restarts the main driver. This
// pull model is what lets the fleet autoscale freely — the web tier never
// needs to know which workers exist.

// Topics used on the broker.
const (
	TopicJobs    = "jobs"
	TopicResults = "results"
)

// DefaultVisibility is the job lease duration: a worker that dies
// mid-job loses its lease and the job is redelivered elsewhere.
const DefaultVisibility = 2 * time.Minute

// Config is the remote worker configuration (§VI-B: "a remote
// configuration system ... allows all worker nodes to be remotely
// configured uniformly. A change in the remote configuration triggers the
// worker node to restart the main driver").
//
// PollInterval is the longest an idle driver sleeps, not a floor on a
// job's latency: the broker wakes a blocked driver when a job becomes
// visible. The interval is what bounds everything the broker does not
// announce — a config change, a pause, a lease whose expiry only a later
// call discovers — and the back-off after a failed poll.
type Config struct {
	PollInterval time.Duration
	Visibility   time.Duration
	Paused       bool
}

// DefaultConfig returns the standard driver configuration.
func DefaultConfig() Config {
	return Config{PollInterval: 5 * time.Millisecond, Visibility: DefaultVisibility}
}

// ConfigServer is the shared remote configuration endpoint.
type ConfigServer struct {
	mu      sync.Mutex
	cfg     Config
	version int64
}

// NewConfigServer creates a server with the given initial configuration.
func NewConfigServer(cfg Config) *ConfigServer {
	return &ConfigServer{cfg: cfg, version: 1}
}

// Get returns the current configuration and its version.
func (cs *ConfigServer) Get() (Config, int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.cfg, cs.version
}

// Update publishes a new configuration, bumping the version.
func (cs *ConfigServer) Update(cfg Config) int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.cfg = cfg
	cs.version++
	return cs.version
}

// Driver is the v2 worker main loop (Figure 7 item 4).
type Driver struct {
	node    *Node
	broker  *queue.Broker
	faults  *faultinject.Registry
	cfgSrv  *ConfigServer
	stopCh  chan struct{}
	doneCh  chan struct{}
	started atomic.Bool

	jobsDone atomic.Int64
	restarts atomic.Int64 // config changes that restarted the loop
	crashes  atomic.Int64 // injected mid-job crashes (abandoned leases)
	cfgVer   atomic.Int64
}

// NewDriver wires a node to a broker and configuration service.
func NewDriver(node *Node, broker *queue.Broker, cfgSrv *ConfigServer) *Driver {
	return &Driver{
		node:   node,
		broker: broker,
		cfgSrv: cfgSrv,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
}

// SetFaults attaches a fault-injection registry to the driver's own fault
// points (crashes around publish/ack). Must be called before Start.
func (d *Driver) SetFaults(r *faultinject.Registry) { d.faults = r }

// Start launches the polling loop. The initial configuration is fetched
// synchronously so a later Update is always observed as a change.
func (d *Driver) Start() {
	if !d.started.CompareAndSwap(false, true) {
		return
	}
	cfg, ver := d.cfgSrv.Get()
	d.cfgVer.Store(ver)
	go d.loop(cfg)
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

func (d *Driver) loop(cfg Config) {
	defer close(d.doneCh)
	caps := d.node.Capabilities()
	timer := time.NewTimer(time.Hour) // reused by every sleep of this loop
	timer.Stop()
	wokenBy := "" // how the idle wait before this poll ended; "" if there was none
	for {
		select {
		case <-d.stopCh:
			return
		default:
		}
		// Config watch: a version change restarts the driver state.
		if ncfg, nver := d.cfgSrv.Get(); nver != d.cfgVer.Load() {
			cfg = ncfg
			d.cfgVer.Store(nver)
			d.restarts.Add(1)
			caps = d.node.Capabilities()
		}
		if cfg.Paused {
			if _, alive := sleepOrWake(d.stopCh, nil, timer, cfg.PollInterval); !alive {
				return
			}
			continue
		}
		// The wake channel is taken before the poll: a job that becomes
		// visible after an empty poll has already closed it.
		wake := d.broker.Wait(TopicJobs)
		delivery, ok, err := d.broker.Poll(TopicJobs, d.node.ID, caps, cfg.Visibility)
		if err != nil {
			if errors.Is(err, queue.ErrClosed) {
				// The broker is gone: nothing is left to poll.
				return
			}
			// Transient poll failure (network blip, injected fault): back
			// off one interval and retry rather than dying.
			if _, alive := sleepOrWake(d.stopCh, nil, timer, cfg.PollInterval); !alive {
				return
			}
			continue
		}
		if !ok {
			// Idle: block until the broker has something, for at most one
			// interval so the config watch above keeps its latency.
			woken, alive := sleepOrWake(d.stopCh, wake, timer, cfg.PollInterval)
			if !alive {
				return
			}
			if woken {
				wokenBy = "publish"
				d.node.Metrics().Inc("driver_wakeups", 1)
			} else {
				wokenBy = "tick"
				d.node.Metrics().Inc("driver_idle_ticks", 1)
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
		// broker woke this driver for the job and tick when the fallback
		// interval found it; it is absent when the driver came straight
		// from its previous job and the message waited for a driver.
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

// sleepOrWake blocks until d has passed, wake is closed (a nil wake never
// is) or stop is; alive is false on stop. t must be stopped and drained on
// entry and is again on return, so one timer serves a whole loop instead of
// a time.After per sleep, which go 1.22 keeps alive until it fires.
func sleepOrWake(stop, wake <-chan struct{}, t *time.Timer, d time.Duration) (woken, alive bool) {
	t.Reset(d)
	select {
	case <-t.C:
		return false, true
	case <-wake:
		woken, alive = true, true
	case <-stop:
	}
	if !t.Stop() {
		<-t.C
	}
	return woken, alive
}

// Fleet manages a set of v2 drivers, the unit the autoscaler adds and
// removes.
type Fleet struct {
	mu      sync.Mutex
	broker  *queue.Broker
	faults  *faultinject.Registry
	cfgSrv  *ConfigServer
	nextID  int
	drivers map[string]*Driver
	mkNode  func(id string) *Node
}

// NewFleet creates an empty fleet; mkNode builds each new worker node
// (nil uses DefaultNodeConfig).
func NewFleet(broker *queue.Broker, cfgSrv *ConfigServer, mkNode func(id string) *Node) *Fleet {
	if mkNode == nil {
		mkNode = func(id string) *Node { return NewNode(DefaultNodeConfig(id)) }
	}
	return &Fleet{broker: broker, cfgSrv: cfgSrv, drivers: map[string]*Driver{}, mkNode: mkNode}
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
		d := NewDriver(f.mkNode(id), f.broker, f.cfgSrv)
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

// JobsDone sums completed jobs across current drivers.
func (f *Fleet) JobsDone() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, d := range f.drivers {
		n += d.JobsDone()
	}
	return n
}

// Stop stops every driver.
func (f *Fleet) Stop() { f.Scale(0) }
