package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/worker"
)

// The first generation's dispatch (§III, Figure 2), kept only as the
// fixture Figure 2 and D3 run: the web server *pushes* each job to a
// worker it selects from the pool, and "the web-server would evict the
// worker from the pool of workers if a health check is not received
// within an allotted time." The platform itself dispatches through the
// broker.

// errNoWorkers is returned when the registry has no live worker able to
// serve a job.
var errNoWorkers = errors.New("worker: no live worker can serve this job")

// With no broker to redeliver a job, push dispatch retries an empty pool
// itself: pushRetries more attempts, waiting pushBackoff·2^(n−1) on the
// registry's clock before attempt n+1.
const (
	pushRetries = 3
	pushBackoff = 2 * time.Millisecond
)

// pushRegistry is the web server's view of the pushed worker pool.
type pushRegistry struct {
	mu     sync.Mutex
	ttl    time.Duration
	clock  clock.Clock
	nodes  map[string]*pushed
	evicts int64
}

type pushed struct {
	node     *worker.Node
	lastBeat time.Time
	inflight int
}

// newPushRegistry creates a registry that evicts a worker silent for
// longer than ttl.
func newPushRegistry(ttl time.Duration) *pushRegistry {
	return &pushRegistry{ttl: ttl, clock: clock.Real, nodes: map[string]*pushed{}}
}

// SetClock replaces the clock that times health checks and retry backoff.
func (r *pushRegistry) SetClock(c clock.Clock) { r.clock = c }

// Register adds a worker to the pool (its registration counts as a beat).
func (r *pushRegistry) Register(n *worker.Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nodes[n.ID] = &pushed{node: n, lastBeat: r.clock.Now()}
}

// evictStaleLocked drops workers whose last health check is too old.
func (r *pushRegistry) evictStaleLocked() {
	now := r.clock.Now()
	for id, p := range r.nodes {
		if now.Sub(p.lastBeat) > r.ttl {
			delete(r.nodes, id)
			r.evicts++
		}
	}
}

// Alive returns the IDs of live workers in ascending order, after
// evicting stale ones.
func (r *pushRegistry) Alive() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictStaleLocked()
	out := make([]string, 0, len(r.nodes))
	for id := range r.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Evictions reports how many workers were evicted for missing health
// checks.
func (r *pushRegistry) Evictions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicts
}

// Size reports the live pool size.
func (r *pushRegistry) Size() int { return len(r.Alive()) }

// Dispatch pushes a job to a live, capable, least-loaded worker and runs
// it synchronously: "the web-server acts as an intermediary, dispatching
// jobs to a node in the pool of workers and relaying the results"
// (§III-A). An empty pool is retried pushRetries times; the give-up error
// wraps errNoWorkers.
func (r *pushRegistry) Dispatch(ctx context.Context, job *worker.Job) (*worker.Result, error) {
	for attempt := 1; ; attempt++ {
		if p := r.pick(job); p != nil {
			res := p.node.Execute(ctx, job)
			r.mu.Lock()
			p.inflight--
			r.mu.Unlock()
			if res.Canceled && ctx.Err() != nil {
				return res, ctx.Err()
			}
			return res, nil
		}
		if attempt > pushRetries {
			return nil, fmt.Errorf("worker: dispatch gave up after %d attempts: %w", attempt, errNoWorkers)
		}
		backoff := r.clock.NewTimer(pushBackoff << (attempt - 1))
		select {
		case <-ctx.Done():
			backoff.Stop()
			return nil, ctx.Err()
		case <-backoff.C:
		}
	}
}

// pick selects and reserves the least-loaded live worker that can serve
// job, or returns nil.
func (r *pushRegistry) pick(job *worker.Job) *pushed {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictStaleLocked()
	var pick *pushed
	for _, p := range r.nodes {
		if p.node.CanServe(job) && (pick == nil || p.inflight < pick.inflight) {
			pick = p
		}
	}
	if pick != nil {
		pick.inflight++
	}
	return pick
}
