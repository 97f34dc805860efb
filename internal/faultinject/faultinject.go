// Package faultinject is a deterministic, seeded fault-injection layer
// for the WebGPU pipeline. Production code declares named *fault points*
// at the places where real deployments fail — a broker publish, a result
// ack, a worker compile, a WAL append — and calls Fire at each one. With
// no registry attached (the nil *Registry), Fire is a single nil check
// and the pipeline runs exactly as before; with a registry, each armed
// point injects errors and/or latency according to its trigger
// (probability, bounded count, one-shot, skip-the-first-N), drawing from
// a seeded PRNG so a chaos run can be replayed by seed.
//
// The package exists so the v2 architecture's fault machinery — lease
// expiry and redelivery, dead-letter queues, v1's dispatch retry — is
// exercised by tests instead of trusted on faith
// (§VI-A builds all of it precisely to survive these faults).
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the default error returned by an armed fault point with
// no explicit Err configured. Errors returned by Fire wrap it, so callers
// (and tests) can detect an injected failure with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// The fault points the pipeline declares; Catalog says where each one
// sits and what it simulates.
const (
	PointQueuePublish            = "queue.publish"
	PointQueuePoll               = "queue.poll"
	PointQueueAck                = "queue.ack"
	PointDriverCrashBeforeAck    = "driver.crash_before_ack"
	PointDriverCrashAfterPublish = "driver.crash_after_publish"
	PointDriverPublishResult     = "driver.publish_result"
	PointNodeCompile             = "node.compile"
	PointNodeExec                = "node.exec"
	PointWALAppend               = "wal.append"
	PointCAStoreRead             = "castore.read"
	PointCAStoreWrite            = "castore.write"
)

// PointInfo documents one fault point.
type PointInfo struct{ Name, Layer, Simulates string }

// Catalog lists every fault point, in pipeline order; DESIGN.md's
// fault-point table is generated from it.
var Catalog = []PointInfo{
	{PointQueuePublish, "broker (`Broker.Publish`)", "a lost publish (network partition): fails before enqueue"},
	{PointQueuePoll, "broker (`Broker.Poll`)", "a transient poll failure, before leasing"},
	{PointQueueAck, "broker (`Delivery.Ack`)", "an ack lost after processing — the at-least-once hole; the lease expires"},
	{PointDriverCrashBeforeAck, "v2 driver", "a worker dying after execute, before the result publish: the job re-runs elsewhere"},
	{PointDriverCrashAfterPublish, "v2 driver", "a worker dying between result publish and ack: a duplicate result"},
	{PointDriverPublishResult, "v2 driver", "a failed result publish: the driver nacks and the job retries"},
	{PointNodeCompile, "worker node", "a transient compile-infrastructure failure (`Result.Transient`)"},
	{PointNodeExec, "worker node", "a transient execution-infrastructure failure (`Result.Transient`)"},
	{PointWALAppend, "db", "a failed write-ahead-log append (full disk); the commit returns the error"},
	{PointCAStoreRead, "castore", "a store read failing mid-flight; the caller treats it as a miss"},
	{PointCAStoreWrite, "castore", "a store write failing before the atomic rename; nothing is persisted"},
}

// Fault configures one armed fault point.
type Fault struct {
	// Prob is the per-evaluation firing probability in (0, 1]. Zero means
	// "always fire" (subject to After/Count/Once), so the common
	// deterministic configuration needs no fields beyond the trigger.
	Prob float64

	// After suppresses the first N evaluations of the point — "crash on
	// the third publish" is Fault{After: 2, Once: true}.
	After int

	// Count bounds how many times the point fires; 0 is unlimited.
	Count int

	// Once is shorthand for Count: 1.
	Once bool

	// Err is the injected error. When nil and Latency is zero, Fire
	// returns an error wrapping ErrInjected; when nil and Latency is set,
	// the point injects latency only and Fire returns nil.
	Err error

	// Latency is slept on each fire before Fire returns — a slow disk, a
	// congested broker link.
	Latency time.Duration
}

type point struct {
	fault Fault
	evals int64
	fired int64
}

// Registry holds the armed fault points of one chaos scenario. The nil
// *Registry is valid everywhere and injects nothing; components accept a
// *Registry and simply call Fire.
type Registry struct {
	mu     sync.Mutex
	seed   int64
	rng    *rand.Rand
	points map[string]*point
}

// New creates a registry whose probabilistic triggers draw from a PRNG
// seeded with seed. Two single-threaded runs with the same seed and the
// same Fire sequence make identical firing decisions; concurrent runs
// replay the same fault *rates* (goroutine interleaving perturbs which
// exact evaluation fires).
func New(seed int64) *Registry {
	return &Registry{
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed)),
		points: map[string]*point{},
	}
}

// Enable arms (or re-arms, resetting counters) a fault point.
func (r *Registry) Enable(name string, f Fault) {
	if r == nil {
		return
	}
	if f.Once && f.Count == 0 {
		f.Count = 1
	}
	r.mu.Lock()
	r.points[name] = &point{fault: f}
	r.mu.Unlock()
}

// Disable disarms a fault point; its counters are discarded.
func (r *Registry) Disable(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.points, name)
	r.mu.Unlock()
}

// DisableAll disarms every point — the "chaos off, let the system drain"
// phase of a soak run.
func (r *Registry) DisableAll() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.points = map[string]*point{}
	r.mu.Unlock()
}

// Fire evaluates a fault point. It returns nil when the registry is nil,
// the point is not armed, or the trigger decides not to fire; otherwise
// it sleeps the configured latency and returns the configured error (nil
// for latency-only faults). This is the only call production code makes.
func (r *Registry) Fire(name string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	p, ok := r.points[name]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	p.evals++
	if p.evals <= int64(p.fault.After) {
		r.mu.Unlock()
		return nil
	}
	if p.fault.Count > 0 && p.fired >= int64(p.fault.Count) {
		r.mu.Unlock()
		return nil
	}
	if p.fault.Prob > 0 && r.rng.Float64() >= p.fault.Prob {
		r.mu.Unlock()
		return nil
	}
	p.fired++
	f := p.fault
	r.mu.Unlock()

	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	if f.Err != nil {
		return f.Err
	}
	if f.Latency > 0 {
		return nil
	}
	return fmt.Errorf("%w at %s", ErrInjected, name)
}

// Fired reports how many times a point has fired.
func (r *Registry) Fired(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		return p.fired
	}
	return 0
}

// Evaluations reports how many times a point has been evaluated
// (verifies a point is actually wired into the path under test).
func (r *Registry) Evaluations(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		return p.evals
	}
	return 0
}

// String summarizes the registry for a chaos run's replay log:
// seed plus per-point fired/evaluated counts.
func (r *Registry) String() string {
	if r == nil {
		return "faultinject: disabled"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.points))
	for name := range r.points {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "faultinject: seed=%d", r.seed)
	for _, name := range names {
		p := r.points[name]
		fmt.Fprintf(&sb, " %s=%d/%d", name, p.fired, p.evals)
	}
	return sb.String()
}
