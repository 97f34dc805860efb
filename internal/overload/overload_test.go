package overload

import (
	"context"
	"errors"
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/metrics"
)

// newClock is the manual clock every timing-sensitive test in this
// package advances explicitly — no time.Sleep assertions.
func newClock() *clock.Manual {
	return clock.NewManual(time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC))
}

func TestShedBeforeQueueForLowClasses(t *testing.T) {
	clk := newClock()
	c := New(Config{
		Clock: clk,
		Limits: map[Class]ClassLimit{
			ClassRead: {MaxConcurrent: 2}, // MaxQueue 0: shed-before-queue
		},
	})

	t1, err := c.Admit(context.Background(), ClassRead)
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	t2, err := c.Admit(context.Background(), ClassRead)
	if err != nil {
		t.Fatalf("admit 2: %v", err)
	}

	// Saturated low class sheds synchronously — it must never block.
	_, err = c.Admit(context.Background(), ClassRead)
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonSaturated {
		t.Fatalf("want ReasonSaturated, got %v", err)
	}

	t1.Release()
	if tk, err := c.Admit(context.Background(), ClassRead); err != nil {
		t.Fatalf("after release: %v", err)
	} else {
		tk.Release()
	}
	t2.Release()
}

func TestSubmissionQueueGrantHandoff(t *testing.T) {
	clk := newClock()
	c := New(Config{
		Clock: clk,
		Limits: map[Class]ClassLimit{
			ClassSubmission: {MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: time.Minute},
		},
	})

	t1, err := c.Admit(context.Background(), ClassSubmission)
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}

	// Second submission queues; the grant arrives when t1 releases.
	type res struct {
		tk  *Ticket
		err error
	}
	done := make(chan res, 1)
	go func() {
		tk, err := c.Admit(context.Background(), ClassSubmission)
		done <- res{tk, err}
	}()

	// Wait for the waiter to be queued, then hand the slot over.
	clk.BlockUntil(1) // the waiter is queued and its timeout armed
	t1.Release()

	r := <-done
	if r.err != nil {
		t.Fatalf("queued admit: %v", r.err)
	}
	g := c.gates[ClassSubmission]
	g.mu.Lock()
	inflight := g.inflight
	g.mu.Unlock()
	if inflight != 1 {
		t.Fatalf("inflight after handoff = %d, want 1 (slot transferred, not re-acquired)", inflight)
	}
	r.tk.Release()
	g.mu.Lock()
	inflight = g.inflight
	g.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("inflight after final release = %d, want 0", inflight)
	}
}

// TestQueuedSubmissionTimesOut: a queued waiter that no release reaches
// is shed with queue_timeout once QueueTimeout has passed on the
// controller's clock, and not before.
func TestQueuedSubmissionTimesOut(t *testing.T) {
	clk := newClock()
	c := New(Config{
		Clock: clk,
		Limits: map[Class]ClassLimit{
			ClassSubmission: {MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Minute},
		},
	})
	tk, err := c.Admit(context.Background(), ClassSubmission)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release()
	queued := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), ClassSubmission)
		queued <- err
	}()
	clk.BlockUntil(1)
	clk.Advance(time.Minute - time.Nanosecond)
	select {
	case err := <-queued:
		t.Fatalf("waiter left the queue before its timeout: %v", err)
	default:
	}
	clk.Advance(time.Nanosecond)
	var se *ShedError
	if err := <-queued; !errors.As(err, &se) || se.Reason != ReasonQueueTimeout {
		t.Fatalf("want ReasonQueueTimeout, got %v", err)
	}
}

func TestQueueFullSheds(t *testing.T) {
	clk := newClock()
	c := New(Config{
		Clock: clk,
		Limits: map[Class]ClassLimit{
			ClassSubmission: {MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Minute},
		},
	})
	tk, err := c.Admit(context.Background(), ClassSubmission)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, ClassSubmission)
		queued <- err
	}()
	clk.BlockUntil(1) // the waiter is queued and its timeout armed

	// Queue is at MaxQueue: next submission sheds with queue_full.
	_, err = c.Admit(context.Background(), ClassSubmission)
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonQueueFull {
		t.Fatalf("want ReasonQueueFull, got %v", err)
	}

	// Cancelling the queued waiter sheds it with cancelled.
	cancel()
	if err := <-queued; !errors.As(err, &se) || se.Reason != ReasonCancelled {
		t.Fatalf("want ReasonCancelled, got %v", err)
	}
	g := c.gates[ClassSubmission]
	g.mu.Lock()
	nw := len(g.waiters)
	g.mu.Unlock()
	if nw != 0 {
		t.Fatalf("abandoned waiter still queued: %d", nw)
	}
}

func TestBackpressureShedsByClassThreshold(t *testing.T) {
	clk := newClock()
	depth := 0
	c := New(Config{Clock: clk, QueueDepthLimit: 100})
	c.SetQueueDepth(func() int { return depth })

	// Pressure 0.6: reads (ShedAt 0.5) shed, drafts (0.75) and
	// submissions admit — the priority ordering in one number.
	depth = 60
	if p := c.Pressure(); p != 0.6 {
		t.Fatalf("Pressure = %v, want 0.6", p)
	}
	_, err := c.Admit(context.Background(), ClassRead)
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonBackpressure {
		t.Fatalf("read at 0.6: want backpressure shed, got %v", err)
	}
	if tk, err := c.Admit(context.Background(), ClassDraft); err != nil {
		t.Fatalf("draft at 0.6: %v", err)
	} else {
		tk.Release()
	}
	if tk, err := c.Admit(context.Background(), ClassSubmission); err != nil {
		t.Fatalf("submission at 0.6: %v", err)
	} else {
		tk.Release()
	}

	// Pressure 0.8: drafts shed too; submissions still admit.
	depth = 80
	if _, err := c.Admit(context.Background(), ClassDraft); !errors.Is(err, ErrShed) {
		t.Fatalf("draft at 0.8: want shed, got %v", err)
	}
	if tk, err := c.Admit(context.Background(), ClassSubmission); err != nil {
		t.Fatalf("submission at 0.8: %v", err)
	} else {
		tk.Release()
	}

	// Pressure recedes: everything admits again.
	depth = 10
	for _, cl := range Classes() {
		if tk, err := c.Admit(context.Background(), cl); err != nil {
			t.Fatalf("%s after recovery: %v", cl, err)
		} else {
			tk.Release()
		}
	}
}

func TestDraftLoadSignalFeedsPressure(t *testing.T) {
	clk := newClock()
	c := New(Config{Clock: clk})
	c.SetDraftLoad(func() int { return DefaultDraftLoadLimit * 3 / 4 })
	if p := c.Pressure(); p != 0.75 {
		t.Fatalf("Pressure = %v, want 0.75 from draft load", p)
	}
}

func TestBurnRateWindowsDeterministic(t *testing.T) {
	clk := newClock()
	tr := newBurnTracker(SLOConfig{Target: 0.99, FastWindow: 5 * time.Minute, SlowWindow: time.Hour})

	// No traffic: no burn.
	if f, s := tr.burnRates(clk.Now()); f != 0 || s != 0 {
		t.Fatalf("idle burn = %v/%v, want 0/0", f, s)
	}

	// 10% sheds against a 1% budget: burn 10 in both windows.
	for i := 0; i < 100; i++ {
		tr.record(clk.Now(), i%10 != 0)
		clk.Advance(time.Second)
	}
	f, s := tr.burnRates(clk.Now())
	if f < 9.9 || f > 10.1 {
		t.Fatalf("fast burn = %v, want ~10", f)
	}
	if s < 9.9 || s > 10.1 {
		t.Fatalf("slow burn = %v, want ~10", s)
	}

	// Six minutes of silence: the 5m fast window has fully rolled off,
	// the 1h slow window still remembers the incident.
	clk.Advance(6 * time.Minute)
	f, s = tr.burnRates(clk.Now())
	if f != 0 {
		t.Fatalf("fast burn after window rolled off = %v, want 0", f)
	}
	if s < 9.9 || s > 10.1 {
		t.Fatalf("slow burn within window = %v, want ~10", s)
	}

	// After the slow window passes the incident is forgotten entirely.
	clk.Advance(time.Hour)
	if f, s := tr.burnRates(clk.Now()); f != 0 || s != 0 {
		t.Fatalf("burn after both windows = %v/%v, want 0/0", f, s)
	}
}

func TestBurnRateRecovery(t *testing.T) {
	clk := newClock()
	tr := newBurnTracker(SLOConfig{Target: 0.9, FastWindow: time.Minute, SlowWindow: 10 * time.Minute})

	// All shed: burn = 1/(1-0.9) = 10.
	for i := 0; i < 30; i++ {
		tr.record(clk.Now(), false)
		clk.Advance(time.Second)
	}
	if f, _ := tr.burnRates(clk.Now()); f < 9.9 {
		t.Fatalf("fast burn under total shed = %v, want ~10", f)
	}

	// Healthy traffic dilutes the fast window back toward zero.
	for i := 0; i < 120; i++ {
		tr.record(clk.Now(), true)
		clk.Advance(time.Second)
	}
	f, s := tr.burnRates(clk.Now())
	if f != 0 {
		t.Fatalf("fast burn after a healthy minute = %v, want 0", f)
	}
	if s == 0 {
		t.Fatalf("slow burn should still remember the incident, got 0")
	}
}

func TestControllerCollectAndStatuses(t *testing.T) {
	clk := newClock()
	reg := metrics.NewRegistry()
	c := New(Config{
		Clock:   clk,
		Metrics: reg,
		Limits: map[Class]ClassLimit{
			ClassRead: {MaxConcurrent: 1},
		},
	})

	tk, err := c.Admit(context.Background(), ClassRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(context.Background(), ClassRead); !errors.Is(err, ErrShed) {
		t.Fatalf("want shed, got %v", err)
	}
	tk.Release()

	if got := reg.Counter("overload_admitted_read"); got != 1 {
		t.Fatalf("overload_admitted_read = %v, want 1", got)
	}
	if got := reg.Counter("overload_shed_read"); got != 1 {
		t.Fatalf("overload_shed_read = %v, want 1", got)
	}
	if got := reg.Counter("overload_shed_reason_saturated"); got != 1 {
		t.Fatalf("overload_shed_reason_saturated = %v, want 1", got)
	}

	c.Collect(reg)
	// 1 shed of 2 requests against a 5% read budget: burn = 0.5/0.05.
	if got := reg.Gauge("overload_burn_fast_read"); got < 9.99 || got > 10.01 {
		t.Fatalf("overload_burn_fast_read = %v, want ~10", got)
	}

	sts := c.SLOStatuses()
	if len(sts) != 3 {
		t.Fatalf("SLOStatuses len = %d, want 3", len(sts))
	}
	if sts[0].Name != "submission" || sts[1].Name != "draft" || sts[2].Name != "read" {
		t.Fatalf("SLOStatuses order = %s/%s/%s, want priority order",
			sts[0].Name, sts[1].Name, sts[2].Name)
	}
	if sts[2].Shed != 1 || sts[2].Admitted != 1 {
		t.Fatalf("read status = admitted %v shed %v, want 1/1", sts[2].Admitted, sts[2].Shed)
	}
}

func TestClassNoneAlwaysAdmits(t *testing.T) {
	c := New(Config{Clock: newClock()})
	tk, err := c.Admit(context.Background(), ClassNone)
	if err != nil {
		t.Fatalf("ClassNone: %v", err)
	}
	tk.Release()
	tk.Release() // idempotent

	var nilCtrl *Controller
	if _, err := nilCtrl.Admit(context.Background(), ClassSubmission); err != nil {
		t.Fatalf("nil controller must admit: %v", err)
	}
}
