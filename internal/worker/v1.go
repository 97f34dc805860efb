package worker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/trace"
)

// v1 architecture (§III, Figure 2): the web server *pushes* jobs to a
// worker it selects from the pool, and workers send periodic health
// checks; "the web-server would evict the worker from the pool of workers
// if a health check is not received within an allotted time."

// ErrNoWorkers is returned when the registry has no live worker able to
// serve a job.
var ErrNoWorkers = errors.New("worker: no live worker can serve this job")

// DefaultHealthTTL is how long a worker may go silent before eviction.
const DefaultHealthTTL = 30 * time.Second

// v1 has no broker to lean on for redelivery, so the push dispatch itself
// retries: up to DefaultDispatchRetries extra attempts with exponential
// backoff starting at DefaultRetryBackoff (plus jitter, capped at
// maxRetryBackoff per wait).
const (
	DefaultDispatchRetries = 3
	DefaultRetryBackoff    = 2 * time.Millisecond
	maxRetryBackoff        = 250 * time.Millisecond
)

// Registry is the web server's view of the v1 worker pool.
type Registry struct {
	mu     sync.Mutex
	ttl    time.Duration
	clock  func() time.Time
	nodes  map[string]*registered
	evicts int64

	faults       *faultinject.Registry
	maxRetries   int
	retryBackoff time.Duration
	retries      int64 // dispatch attempts beyond the first
}

type registered struct {
	node     *Node
	lastBeat time.Time
	inflight int
}

// NewRegistry creates a registry with the given health-check TTL.
func NewRegistry(ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = DefaultHealthTTL
	}
	return &Registry{
		ttl:          ttl,
		clock:        time.Now,
		nodes:        map[string]*registered{},
		maxRetries:   DefaultDispatchRetries,
		retryBackoff: DefaultRetryBackoff,
	}
}

// SetClock overrides the time source (tests).
func (r *Registry) SetClock(clock func() time.Time) { r.clock = clock }

// SetFaults attaches a fault-injection registry to the push path.
func (r *Registry) SetFaults(f *faultinject.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = f
}

// SetRetry reconfigures the dispatch retry budget: up to max extra
// attempts, waiting base·2^(n−1) plus jitter before attempt n. A negative
// max disables retries; a zero base keeps the default.
func (r *Registry) SetRetry(max int, base time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if max < 0 {
		max = 0
	}
	r.maxRetries = max
	if base > 0 {
		r.retryBackoff = base
	}
}

// Retries reports how many dispatch attempts beyond the first were made.
func (r *Registry) Retries() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// Register adds a worker to the pool (its registration counts as a beat).
func (r *Registry) Register(n *Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nodes[n.ID] = &registered{node: n, lastBeat: r.clock()}
}

// Deregister removes a worker.
func (r *Registry) Deregister(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.nodes, id)
}

// Beat records a health check from a worker.
func (r *Registry) Beat(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if reg, ok := r.nodes[id]; ok {
		reg.lastBeat = r.clock()
	}
}

// evictStaleLocked drops workers whose last health check is too old.
func (r *Registry) evictStaleLocked(now time.Time) {
	for id, reg := range r.nodes {
		if now.Sub(reg.lastBeat) > r.ttl {
			delete(r.nodes, id)
			r.evicts++
		}
	}
}

// Alive returns the IDs of live workers, after evicting stale ones.
func (r *Registry) Alive() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictStaleLocked(r.clock())
	out := make([]string, 0, len(r.nodes))
	for id := range r.nodes {
		out = append(out, id)
	}
	return out
}

// Evictions reports how many workers were evicted for missing health
// checks.
func (r *Registry) Evictions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicts
}

// Size reports the live pool size.
func (r *Registry) Size() int { return len(r.Alive()) }

// StartHeartbeats runs the workers' periodic health checks (§III-C: "the
// worker node [sends] regular health checks to the web-server"): every
// interval, each registered in-process node reports in. Returns a stop
// function. Nodes registered later are picked up automatically.
func (r *Registry) StartHeartbeats(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = r.ttl / 3
	}
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				r.mu.Lock()
				now := r.clock()
				for _, reg := range r.nodes {
					reg.lastBeat = now
				}
				r.mu.Unlock()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Dispatch pushes a job to a live, capable, least-loaded worker and runs
// it synchronously, returning the worker's result. This is the v1 flow:
// "the web-server acts as an intermediary, dispatching jobs to a node in
// the pool of workers and relaying the results" (§III-A). The context
// carries the job's trace (the node writes spans straight into it) and
// cancellation: a job cancelled mid-flight returns its partial result
// alongside ctx's error.
//
// Unlike v2, there is no broker to redeliver a failed job, so Dispatch
// retries transient failures itself — an empty pool, a failed push, a
// worker reporting an infrastructure fault — with exponential backoff and
// jitter before giving up. The give-up error wraps the last failure, so
// errors.Is(err, ErrNoWorkers) still identifies a pool that stayed empty.
func (r *Registry) Dispatch(ctx context.Context, job *Job) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.mu.Lock()
	maxRetries, base := r.maxRetries, r.retryBackoff
	r.mu.Unlock()

	var lastRes *Result
	var lastErr error
	for attempt := 1; ; attempt++ {
		res, err, retryable := r.dispatchOnce(ctx, job)
		if !retryable {
			return res, err
		}
		lastRes, lastErr = res, err
		if attempt > maxRetries {
			return lastRes, fmt.Errorf("worker: dispatch gave up after %d attempts: %w", attempt, lastErr)
		}
		r.mu.Lock()
		r.retries++
		r.mu.Unlock()
		if !sleepCtx(ctx, retryDelay(base, attempt)) {
			return lastRes, ctx.Err()
		}
	}
}

// dispatchOnce makes a single push attempt. retryable reports whether the
// failure is transient (empty pool, injected push fault, worker-side
// infrastructure failure) rather than a final outcome.
func (r *Registry) dispatchOnce(ctx context.Context, job *Job) (res *Result, err error, retryable bool) {
	r.mu.Lock()
	faults := r.faults
	now := r.clock()
	r.evictStaleLocked(now)
	var pick *registered
	for _, reg := range r.nodes {
		if !reg.node.CanServe(job) {
			continue
		}
		if pick == nil || reg.inflight < pick.inflight {
			pick = reg
		}
	}
	if pick == nil {
		r.mu.Unlock()
		return nil, ErrNoWorkers, true
	}
	pick.inflight++
	r.mu.Unlock()

	release := func() {
		r.mu.Lock()
		pick.inflight--
		r.mu.Unlock()
	}
	if ferr := faults.Fire(faultinject.PointV1Push); ferr != nil {
		release()
		return nil, fmt.Errorf("worker: push to %s failed: %w", pick.node.ID, ferr), true
	}

	dispatchStart := time.Now()
	res = pick.node.Execute(ctx, job)

	// The push path reports queue wait too, so Figure 2 comparisons no
	// longer under-report v1 latency: everything between dispatch and the
	// start of execution — worker selection plus the node's admission
	// wait — is queueing, not execution.
	if wait := time.Since(dispatchStart) - res.ExecDuration; wait > res.QueueWait {
		res.QueueWait = wait
	}
	if tr := trace.FromContext(ctx); tr != nil {
		tr.Add(trace.Span{Name: "queue_wait", Start: dispatchStart, Dur: res.QueueWait,
			Attrs: map[string]string{"worker": res.WorkerID, "arch": "v1"}})
	}

	release()
	if res.Canceled && ctx.Err() != nil {
		return res, ctx.Err(), false
	}
	if res.Transient {
		return res, fmt.Errorf("worker: transient failure on %s: %s", res.WorkerID, res.Error), true
	}
	return res, nil, false
}

// retryDelay returns base·2^(attempt−1) capped at maxRetryBackoff, plus up
// to 50% jitter so synchronized retries fan out.
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt-1)
	if d <= 0 || d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	return d + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleepCtx waits d, returning false if ctx expires first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
