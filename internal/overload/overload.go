// Package overload is WebGPU's overload-survival layer: admission
// control with priority-class load-shedding at the web tier, backpressure
// signals from the broker and the live-development loop, and burn-rate
// SLO tracking over the shared metrics registry.
//
// The paper's platform survived MOOC deadline spikes (>100k students per
// offering) by queueing everything; production scale means *graceful
// degradation* instead: when the system saturates, the requests that are
// cheapest to retry and least valuable to serve right now are rejected
// first, so the requests that matter — graded submissions — keep their
// latency bound. The priority order is
//
//	submissions > draft analyses > peer-review/history reads
//
// enforced two ways:
//
//   - Concurrency gates: each class holds at most MaxConcurrent requests
//     in flight. Submissions may additionally queue (bounded, with a
//     queue timeout); low classes are shed-before-queue — a saturated
//     class rejects immediately rather than building a latency bomb.
//   - Backpressure: the broker's job backlog, the live-session draft
//     load, and the submission queue's fill feed one pressure figure in
//     [0, ∞). Reads shed at lower pressure than drafts; submissions never
//     shed on pressure, only when their own bounded queue overflows.
//
// The per-user limits are not here: the §III-C submission interval is
// the web tier's sandbox.Limits, and the draft budget is devsession's.
//
// Every decision is recorded: per-class admitted/shed counters, inflight
// and saturation gauges, queue-wait histograms, and fast/slow burn-rate
// windows against per-class availability SLOs — the signals the admin
// dashboard and /healthz surface.
package overload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/metrics"
)

// Class is a request priority class. Higher-value work has a lower shed
// priority: ClassSubmission is shed last, ClassRead first.
type Class int

// Priority classes, most to least important. ClassNone marks a route
// exempt from admission control.
const (
	ClassNone Class = iota
	ClassSubmission
	ClassDraft
	ClassRead
	numClasses
)

// String returns the class's metric/JSON name.
func (c Class) String() string {
	switch c {
	case ClassSubmission:
		return "submission"
	case ClassDraft:
		return "draft"
	case ClassRead:
		return "read"
	default:
		return "none"
	}
}

// Classes lists the admission-controlled classes in priority order.
func Classes() []Class { return []Class{ClassSubmission, ClassDraft, ClassRead} }

// Shed reasons, stable for metrics and error envelopes.
const (
	ReasonBackpressure = "backpressure" // system pressure above the class threshold
	ReasonSaturated    = "saturated"    // class at MaxConcurrent, shed-before-queue
	ReasonQueueFull    = "queue_full"   // class queue already holds MaxQueue waiters
	ReasonQueueTimeout = "queue_timeout"
	ReasonCancelled    = "cancelled" // caller's context ended while queued
)

// ErrShed is the sentinel every shed decision wraps; callers detect a
// shed with errors.Is and read the details from the *ShedError.
var ErrShed = errors.New("overload: request shed")

// ShedError carries one shed decision: which class, why, and how long the
// client should wait before retrying (the Retry-After header).
type ShedError struct {
	Class      Class
	Reason     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("overload: %s request shed (%s), retry in %s",
		e.Class, e.Reason, e.RetryAfter.Round(time.Second))
}

// Is reports ErrShed identity so errors.Is(err, ErrShed) works.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// RetryAfterSeconds extracts a Retry-After value (whole seconds, >= 1)
// from a shed error, or 0 when err is not a shed.
func RetryAfterSeconds(err error) int {
	var se *ShedError
	if !errors.As(err, &se) {
		return 0
	}
	s := int(math.Ceil(se.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// ClassLimit tunes one class's admission gates.
type ClassLimit struct {
	// MaxConcurrent bounds in-flight admitted requests. Zero selects the
	// class default.
	MaxConcurrent int

	// MaxQueue bounds how many callers may wait for a slot once the class
	// is at MaxConcurrent. Zero means shed-before-queue: a saturated
	// class rejects immediately (the right setting for sheddable classes,
	// where queueing only converts overload into latency).
	MaxQueue int

	// QueueTimeout bounds how long a queued caller waits before being
	// shed; zero selects DefaultQueueTimeout when MaxQueue > 0.
	QueueTimeout time.Duration

	// ShedAt is the pressure threshold at or above which the class sheds
	// on backpressure alone, before touching its gates. Zero disables
	// pressure shedding (submissions), so only explicit configuration
	// makes a class pressure-sheddable.
	ShedAt float64
}

// SLOConfig is one class's availability objective and burn windows;
// each class's is fixed by defaultSLO.
type SLOConfig struct {
	// Target is the availability objective in (0, 1): the fraction of
	// requests that should be admitted, e.g. 0.999.
	Target float64
	// FastWindow and SlowWindow are the burn-rate windows (defaults 5m
	// and 1h). The fast window catches a sudden overload, the slow one a
	// smolder.
	FastWindow time.Duration
	SlowWindow time.Duration
}

// Defaults.
const (
	DefaultQueueTimeout    = 10 * time.Second
	DefaultQueueDepthLimit = 1024 // broker backlog at which pressure reads 1.0
	DefaultDraftLoadLimit  = 1024 // live sessions at which pressure reads 1.0
	DefaultFastWindow      = 5 * time.Minute
	DefaultSlowWindow      = time.Hour

	// DefaultReadShedAt / DefaultDraftShedAt order the degradation:
	// reads shed first, drafts second, submissions only when their own
	// bounded queue overflows.
	DefaultReadShedAt  = 0.5
	DefaultDraftShedAt = 0.75
)

// defaultLimit returns the built-in limit for a class. The bounds are
// deliberately generous: an unconfigured deployment should behave exactly
// as before except under genuine overload.
func defaultLimit(c Class) ClassLimit {
	switch c {
	case ClassSubmission:
		return ClassLimit{MaxConcurrent: 256, MaxQueue: 2048,
			QueueTimeout: DefaultQueueTimeout}
	case ClassDraft:
		return ClassLimit{MaxConcurrent: 128, MaxQueue: 0,
			ShedAt: DefaultDraftShedAt}
	default: // ClassRead
		return ClassLimit{MaxConcurrent: 256, MaxQueue: 0,
			ShedAt: DefaultReadShedAt}
	}
}

// retryHints is each class's Retry-After on saturation and queue sheds,
// longer for lower classes so retries re-arrive in priority order.
var retryHints = [numClasses]time.Duration{
	ClassSubmission: time.Second, ClassDraft: 2 * time.Second, ClassRead: 5 * time.Second}

func defaultSLO(c Class) SLOConfig {
	switch c {
	case ClassSubmission:
		return SLOConfig{Target: 0.999, FastWindow: DefaultFastWindow, SlowWindow: DefaultSlowWindow}
	case ClassDraft:
		return SLOConfig{Target: 0.99, FastWindow: DefaultFastWindow, SlowWindow: DefaultSlowWindow}
	default:
		return SLOConfig{Target: 0.95, FastWindow: DefaultFastWindow, SlowWindow: DefaultSlowWindow}
	}
}

// Config wires a Controller.
type Config struct {
	// Clock times the burn windows and the queue timeout (tests inject a
	// clock.Manual); nil means clock.Real.
	Clock clock.Clock
	// Metrics receives overload_* counters, gauges, and histograms;
	// nil creates a private registry.
	Metrics *metrics.Registry

	// Limits overrides per-class gates; classes absent from the map (or
	// with a zero MaxConcurrent and ShedAt) keep their defaults.
	Limits map[Class]ClassLimit

	// QueueDepthLimit normalizes the broker backlog signal (SetQueueDepth):
	// its pressure is backlog/limit. Zero selects DefaultQueueDepthLimit.
	// The draft-load signal (SetDraftLoad) is over DefaultDraftLoadLimit.
	QueueDepthLimit int
}

// Controller makes admission decisions. One controller guards one web
// tier; all methods are safe for concurrent use.
type Controller struct {
	clock   clock.Clock
	metrics *metrics.Registry

	queueDepthLimit int

	sigMu      sync.RWMutex
	queueDepth func() int
	draftLoad  func() int

	gates [numClasses]*gate
	slos  [numClasses]*burnTracker
}

// New builds a controller. Zero-value Config fields take defaults; the
// result is usable immediately and pre-registers its metric series at
// zero so dashboards see the whole set from the first scrape.
func New(cfg Config) *Controller {
	c := &Controller{
		clock:           cfg.Clock,
		metrics:         cfg.Metrics,
		queueDepthLimit: cfg.QueueDepthLimit,
	}
	if c.clock == nil {
		c.clock = clock.Real
	}
	if c.metrics == nil {
		c.metrics = metrics.NewRegistry()
	}
	if c.queueDepthLimit <= 0 {
		c.queueDepthLimit = DefaultQueueDepthLimit
	}
	for _, cl := range Classes() {
		lim := defaultLimit(cl)
		if o, ok := cfg.Limits[cl]; ok && (o.MaxConcurrent != 0 || o.ShedAt != 0) {
			lim = o
			if lim.MaxConcurrent == 0 {
				lim.MaxConcurrent = defaultLimit(cl).MaxConcurrent
			}
		}
		if lim.MaxQueue > 0 && lim.QueueTimeout <= 0 {
			lim.QueueTimeout = DefaultQueueTimeout
		}
		c.gates[cl] = &gate{limit: lim}
		c.slos[cl] = newBurnTracker(defaultSLO(cl))

		// Register the series at zero (devsession-style) so a fresh
		// deployment exports the full overload_* set.
		name := cl.String()
		c.metrics.Inc("overload_admitted_"+name, 0)
		c.metrics.Inc("overload_shed_"+name, 0)
		c.metrics.Set("overload_inflight_"+name, 0)
		c.metrics.Set("overload_saturation_"+name, 0)
		c.metrics.Set("overload_burn_fast_"+name, 0)
		c.metrics.Set("overload_burn_slow_"+name, 0)
	}
	for _, reason := range []string{ReasonBackpressure, ReasonSaturated,
		ReasonQueueFull, ReasonQueueTimeout, ReasonCancelled} {
		c.metrics.Inc("overload_shed_reason_"+reason, 0)
	}
	c.metrics.Set("overload_pressure", 0)
	return c
}

// SetQueueDepth wires (or replaces) the broker-backlog pressure signal.
func (c *Controller) SetQueueDepth(fn func() int) {
	c.sigMu.Lock()
	c.queueDepth = fn
	c.sigMu.Unlock()
}

// SetDraftLoad wires (or replaces) the live-session pressure signal.
func (c *Controller) SetDraftLoad(fn func() int) {
	c.sigMu.Lock()
	c.draftLoad = fn
	c.sigMu.Unlock()
}

// Pressure reports system pressure in [0, ∞): the max of the normalized
// broker backlog, the normalized live-session load, and the submission
// queue's fill fraction. 1.0 means a signal is at its limit. Low classes
// compare this against their ShedAt threshold; the submission class never
// sheds on pressure, it only *generates* it.
func (c *Controller) Pressure() float64 {
	c.sigMu.RLock()
	qd, dl := c.queueDepth, c.draftLoad
	c.sigMu.RUnlock()
	p := 0.0
	if qd != nil {
		p = math.Max(p, float64(qd())/float64(c.queueDepthLimit))
	}
	if dl != nil {
		p = math.Max(p, float64(dl())/DefaultDraftLoadLimit)
	}
	// Queued submissions are the most direct overload evidence: demand
	// already exceeds the worker pool's admitted concurrency.
	if g := c.gates[ClassSubmission]; g.limit.MaxQueue > 0 {
		g.mu.Lock()
		fill := float64(len(g.waiters)) / float64(g.limit.MaxQueue)
		g.mu.Unlock()
		p = math.Max(p, fill)
	}
	return p
}

// Ticket is one admitted request; Release returns its slot. Release is
// idempotent and must be called exactly when the request finishes.
type Ticket struct {
	once sync.Once
	free func()
}

// Release returns the admitted slot to the class gate.
func (t *Ticket) Release() {
	if t == nil {
		return
	}
	t.once.Do(t.free)
}

// Admit decides one request: backpressure and the class gate are
// consulted, and on success the returned Ticket holds a concurrency slot
// until Release. On shed it returns a *ShedError (wrapping ErrShed)
// carrying the Retry-After hint. ClassNone is always admitted with a
// no-op ticket. The trailing tenant names are unread (bench still passes them).
func (c *Controller) Admit(ctx context.Context, cl Class, _ ...string) (*Ticket, error) {
	if c == nil || cl <= ClassNone || cl >= numClasses {
		return &Ticket{free: func() {}}, nil
	}
	g := c.gates[cl]

	// Backpressure first: it is the cheapest check and the whole point of
	// the layer — a sheddable class under pressure must not even queue.
	if g.limit.ShedAt > 0 {
		if p := c.Pressure(); p >= g.limit.ShedAt {
			return nil, c.shed(cl, ReasonBackpressure, c.backpressureRetry(retryHints[cl], p))
		}
	}

	// Concurrency gate.
	g.mu.Lock()
	if g.inflight < g.limit.MaxConcurrent {
		g.inflight++
		g.mu.Unlock()
		c.admitted(cl, g, 0)
		return &Ticket{free: func() { c.release(cl, g) }}, nil
	}
	if g.limit.MaxQueue <= 0 {
		g.mu.Unlock()
		return nil, c.shed(cl, ReasonSaturated, retryHints[cl])
	}
	if len(g.waiters) >= g.limit.MaxQueue {
		g.mu.Unlock()
		return nil, c.shed(cl, ReasonQueueFull, retryHints[cl])
	}
	w := &waiter{ch: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()

	start := c.clock.Now()
	timer := c.clock.NewTimer(g.limit.QueueTimeout)
	defer timer.Stop()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-w.ch:
	case <-ctx.Done():
		if g.abandon(w) {
			return nil, c.shed(cl, ReasonCancelled, retryHints[cl])
		}
		// Grant raced the cancellation: the slot is ours, hand it back.
		c.admitted(cl, g, c.clock.Now().Sub(start))
		c.release(cl, g)
		return nil, c.shed(cl, ReasonCancelled, retryHints[cl])
	case <-timer.C:
		if g.abandon(w) {
			return nil, c.shed(cl, ReasonQueueTimeout, retryHints[cl])
		}
		// A grant raced the timeout: the slot is ours.
	}
	c.admitted(cl, g, c.clock.Now().Sub(start))
	return &Ticket{free: func() { c.release(cl, g) }}, nil
}

// backpressureRetry scales the retry hint with pressure, clamped to
// [base, 30s]: the deeper the overload, the longer clients back off.
func (c *Controller) backpressureRetry(base time.Duration, pressure float64) time.Duration {
	d := time.Duration(float64(base) * math.Max(1, pressure))
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// admitted records a successful admission.
func (c *Controller) admitted(cl Class, g *gate, queued time.Duration) {
	name := cl.String()
	c.metrics.Inc("overload_admitted_"+name, 1)
	if queued > 0 {
		c.metrics.ObserveDuration("overload_queue_wait_ms_"+name, queued)
	}
	g.mu.Lock()
	inflight := g.inflight
	g.mu.Unlock()
	c.setInflight(cl, g, inflight)
	c.slos[cl].record(c.clock.Now(), true)
}

// release returns a slot, handing it to the oldest waiter if any.
func (c *Controller) release(cl Class, g *gate) {
	g.mu.Lock()
	if len(g.waiters) > 0 {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		w.granted = true
		close(w.ch) // inflight count transfers to the waiter
		inflight := g.inflight
		g.mu.Unlock()
		c.setInflight(cl, g, inflight)
		return
	}
	g.inflight--
	inflight := g.inflight
	g.mu.Unlock()
	c.setInflight(cl, g, inflight)
}

func (c *Controller) setInflight(cl Class, g *gate, inflight int) {
	name := cl.String()
	c.metrics.Set("overload_inflight_"+name, float64(inflight))
	c.metrics.Set("overload_saturation_"+name, float64(inflight)/float64(g.limit.MaxConcurrent))
}

// shed records and builds one shed decision.
func (c *Controller) shed(cl Class, reason string, retryAfter time.Duration) error {
	if retryAfter < time.Second {
		retryAfter = time.Second
	}
	c.metrics.Inc("overload_shed_"+cl.String(), 1)
	c.metrics.Inc("overload_shed_reason_"+reason, 1)
	c.slos[cl].record(c.clock.Now(), false)
	return &ShedError{Class: cl, Reason: reason, RetryAfter: retryAfter}
}

// gate is one class's concurrency gate with a FIFO waiter queue.
type gate struct {
	limit    ClassLimit
	mu       sync.Mutex
	inflight int
	waiters  []*waiter
}

type waiter struct {
	ch      chan struct{}
	granted bool
}

// abandon removes a queued waiter; false means a grant raced the removal
// and the caller now owns a slot.
func (g *gate) abandon(w *waiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		return false
	}
	for i, q := range g.waiters {
		if q == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return true
		}
	}
	return true // already removed (should not happen); treat as shed
}

// SLOStatus is one class's burn-rate snapshot.
type SLOStatus struct {
	Class    Class   `json:"-"`
	Name     string  `json:"class"`
	Target   float64 `json:"target"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Admitted float64 `json:"admitted"`
	Shed     float64 `json:"shed"`
	Inflight int     `json:"inflight"`
}

// SLOStatuses snapshots every class's burn rates and counters, in
// priority order.
func (c *Controller) SLOStatuses() []SLOStatus {
	now := c.clock.Now()
	out := make([]SLOStatus, 0, len(Classes()))
	for _, cl := range Classes() {
		t := c.slos[cl]
		g := c.gates[cl]
		g.mu.Lock()
		inflight := g.inflight
		g.mu.Unlock()
		fast, slow := t.burnRates(now)
		out = append(out, SLOStatus{
			Class:    cl,
			Name:     cl.String(),
			Target:   t.cfg.Target,
			FastBurn: fast,
			SlowBurn: slow,
			Admitted: c.metrics.Counter("overload_admitted_" + cl.String()),
			Shed:     c.metrics.Counter("overload_shed_" + cl.String()),
			Inflight: inflight,
		})
	}
	return out
}

// Collect refreshes the lazily-computed gauges (burn rates, pressure) on
// a registry; wire it with Registry.AddCollector.
func (c *Controller) Collect(r *metrics.Registry) {
	now := c.clock.Now()
	for _, cl := range Classes() {
		fast, slow := c.slos[cl].burnRates(now)
		r.Set("overload_burn_fast_"+cl.String(), fast)
		r.Set("overload_burn_slow_"+cl.String(), slow)
	}
	r.Set("overload_pressure", c.Pressure())
}
