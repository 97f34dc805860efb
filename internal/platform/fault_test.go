package platform

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/labs"
	"webgpu/internal/metrics"
	"webgpu/internal/queue"
	"webgpu/internal/worker"
)

// TestV2PlatformDedupsDuplicateResults drives the duplicate-result hole
// through the full platform: the driver crashes right after publishing a
// result, the job redelivers and produces a second result, and the
// result router must count the job exactly once and drop the duplicate.
func TestV2PlatformDedupsDuplicateResults(t *testing.T) {
	reg := faultinject.New(1)
	p := New(Options{
		Workers:    1,
		Faults:     reg,
		Visibility: 60 * time.Millisecond, // fast redelivery of the abandoned lease
	})
	defer p.Close()

	reg.Enable(faultinject.PointDriverCrashAfterPublish, faultinject.Fault{Once: true})
	job := &worker.Job{
		ID:     "dup-job-1",
		LabID:  "vector-add",
		UserID: "u1",
		Source: labs.ByID("vector-add").Reference,
	}
	res, err := p.dispatchV2(context.Background(), job)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if !res.Correct() {
		t.Fatalf("result = %+v", res)
	}

	// The redelivered execution publishes a second result; the router
	// must swallow it.
	deadline := time.Now().Add(10 * time.Second)
	for p.metrics.Counter("router_unclaimed_results") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.metrics.Counter("router_unclaimed_results"); got != 1 {
		t.Fatalf("router_unclaimed_results = %v, want 1", got)
	}
	if u := p.Broker.Unaccounted(); u != 0 {
		t.Errorf("unaccounted = %d", u)
	}
}

// TestAdminDeadLetterEndpoints: a poison message lands in the DLQ, the
// instructor inspects it over HTTP and redrives it.
func TestAdminDeadLetterEndpoints(t *testing.T) {
	p := New(Options{Workers: 1})
	defer p.Close()
	p.Broker.SetMaxAttempts(2)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	prof := newClient(t, ts.URL)
	prof.register("Prof", "prof@example.edu", "instructor")

	// Undecodable payload: every delivery nacks until it dead-letters.
	if _, err := p.Broker.Publish(worker.TopicJobs, []byte("not a job")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(p.Broker.DeadLetters()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(p.Broker.DeadLetters()) == 0 {
		t.Fatal("poison message never dead-lettered")
	}

	var listing struct {
		Total       int `json:"total"`
		DeadLetters []struct {
			ID       string `json:"id"`
			Topic    string `json:"topic"`
			Attempts int    `json:"attempts"`
		} `json:"dead_letters"`
	}
	prof.mustDo("GET", "/api/v1/admin/deadletters", nil, &listing)
	if listing.Total != 1 || len(listing.DeadLetters) != 1 {
		t.Fatalf("listing = %+v", listing)
	}
	if dl := listing.DeadLetters[0]; dl.Topic != worker.TopicJobs || dl.Attempts != 2 {
		t.Errorf("dead letter = %+v", dl)
	}

	var redrive struct {
		Redriven int `json:"redriven"`
	}
	prof.mustDo("POST", "/api/v1/admin/deadletters/redrive", nil, &redrive)
	if redrive.Redriven != 1 {
		t.Fatalf("redriven = %d", redrive.Redriven)
	}

	// Students cannot reach the queue admin.
	student := newClient(t, ts.URL)
	student.register("Stu", "stu@example.edu", "student")
	if code, _ := student.do("GET", "/api/v1/admin/deadletters", nil, nil); code != http.StatusForbidden {
		t.Errorf("student access = %d, want 403", code)
	}
}

// TestAdminDeadLetterShowsTraceAndRequirements: a traced job published
// through dispatchV2 and dead-lettered is listed with its trace ID and
// with exactly its lab's requirements as tags.
func TestAdminDeadLetterShowsTraceAndRequirements(t *testing.T) {
	p := New(Options{Workers: 1, GPUsPerWorker: 1}) // never multi-gpu
	defer p.Close()
	p.Broker.SetMaxAttempts(1)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	prof := newClient(t, ts.URL)
	prof.register("Prof", "prof3@example.edu", "instructor")

	lab := labs.ByID("mpi-stencil")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = p.dispatchV2(ctx, &worker.Job{ID: "dl-job", LabID: lab.ID, Source: lab.Reference,
			Requirements: lab.Requirements, TraceID: "tr-deadletter"})
	}()
	defer func() { cancel(); <-done }()

	caps := map[string]bool{}
	for _, r := range lab.Requirements {
		caps[r] = true
	}
	for {
		wake := p.Broker.Wait(worker.TopicJobs)
		if d, ok, _ := p.Broker.Poll(worker.TopicJobs, "test", caps, time.Minute); ok {
			_ = d.Nack() // the only attempt: straight to the dead-letter queue
			break
		}
		select {
		case <-wake:
		case <-time.After(10 * time.Second):
			t.Fatal("the job was never published")
		}
	}

	var listing struct {
		DeadLetters []struct {
			JobID   string   `json:"job_id"`
			TraceID string   `json:"trace_id"`
			Tags    []string `json:"tags"`
		} `json:"dead_letters"`
	}
	prof.mustDo("GET", "/api/v1/admin/deadletters", nil, &listing)
	if len(listing.DeadLetters) != 1 {
		t.Fatalf("listing = %+v", listing)
	}
	dl := listing.DeadLetters[0]
	if dl.JobID != "dl-job" || dl.TraceID != "tr-deadletter" {
		t.Errorf("dead letter = %+v, want job dl-job with trace tr-deadletter", dl)
	}
	if !slices.Equal(dl.Tags, lab.Requirements) {
		t.Errorf("tags = %v, want the lab's requirements %v", dl.Tags, lab.Requirements)
	}
}

// TestRouterSettlesResultWhenAckFails: an ack that fails on a result the
// router has already delivered must not leave that result leased for the
// router's one-minute visibility — the drain (depth 0, nothing
// unaccounted) has to finish promptly, with the waiter served exactly
// once. One failure is absorbed by the retry; when every retry fails the
// router hands the result back and its redelivery is dropped as a
// duplicate.
func TestRouterSettlesResultWhenAckFails(t *testing.T) {
	for _, tc := range []struct {
		name       string
		fault      faultinject.Fault
		duplicates float64
	}{
		{"retry", faultinject.Fault{Once: true}, 0},
		{"give-up", faultinject.Fault{Count: ackAttempts}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := faultinject.New(1)
			reg.Enable(faultinject.PointQueueAck, tc.fault)
			b := queue.NewBroker()
			b.SetFaults(reg)
			m := metrics.NewRegistry()
			rr := newResultRouter(b, m)
			defer rr.stop()

			ch := rr.register("job-1")
			start := time.Now()
			if _, err := b.Publish(worker.TopicResults, worker.EncodeResult(&worker.Result{JobID: "job-1"})); err != nil {
				t.Fatal(err)
			}
			select {
			case res := <-ch:
				if res.JobID != "job-1" {
					t.Fatalf("delivered %+v", res)
				}
			case <-time.After(time.Second):
				t.Fatal("result never delivered")
			}
			for b.Depth(worker.TopicResults) != 0 && time.Since(start) < time.Second {
				time.Sleep(time.Millisecond)
			}
			if d, u := b.Depth(worker.TopicResults), b.Unaccounted(); d != 0 || u != 0 {
				t.Fatalf("after %v: depth = %d, unaccounted = %d; want 0, 0", time.Since(start), d, u)
			}
			if got := m.Counter("router_unclaimed_results"); got != tc.duplicates {
				t.Errorf("router_unclaimed_results = %v, want %v", got, tc.duplicates)
			}
			if got := m.Counter("router_settle_errors"); got != 0 {
				t.Errorf("router_settle_errors = %v, want 0: the hand-back succeeded", got)
			}
			select {
			case res := <-ch:
				t.Errorf("second delivery: %+v", res)
			default:
			}
		})
	}
}

// TestRouterDropsUnclaimedResult: a result whose waiter is gone — its
// dispatch timed out or was cancelled — is acked and counted once in
// router_unclaimed_results, and nothing of it reaches a waiter that
// registers the same job later. Results route in publish order, so a
// delivered marker result says the router is past everything before it.
func TestRouterDropsUnclaimedResult(t *testing.T) {
	b := queue.NewBroker()
	m := metrics.NewRegistry()
	rr := newResultRouter(b, m)
	publish := func(jobID string) {
		t.Helper()
		if _, err := b.Publish(worker.TopicResults, worker.EncodeResult(&worker.Result{JobID: jobID})); err != nil {
			t.Fatal(err)
		}
	}
	deliver := func(jobID string) {
		t.Helper()
		ch := rr.register(jobID)
		publish(jobID)
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("result %s never delivered", jobID)
		}
	}

	rr.register("job-1")
	rr.unregister("job-1")
	publish("job-1")
	deliver("marker-1")
	later := rr.register("job-1")
	deliver("marker-2") // a full pass after the later waiter registered
	rr.stop()           // settles marker-2

	if got := m.Counter("router_unclaimed_results"); got != 1 {
		t.Errorf("router_unclaimed_results = %v, want 1", got)
	}
	if d, u := b.Depth(worker.TopicResults), b.Unaccounted(); d != 0 || u != 0 {
		t.Errorf("depth = %d, unaccounted = %d; want 0, 0", d, u)
	}
	select {
	case res := <-later:
		t.Errorf("dropped result reached a later waiter: %+v", res)
	default:
	}
}

// TestRouterCountsFailedNacks: a hand-back the broker refuses (here, of a
// result already settled) is counted, not dropped in silence.
func TestRouterCountsFailedNacks(t *testing.T) {
	b := queue.NewBroker()
	m := metrics.NewRegistry()
	rr := &resultRouter{broker: b, metrics: m}
	if _, err := b.Publish(worker.TopicResults, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d, ok, err := b.Poll(worker.TopicResults, "router", nil, time.Minute)
	if err != nil || !ok {
		t.Fatalf("poll = %v, %v", ok, err)
	}
	rr.nack(d)
	if got := m.Counter("router_settle_errors"); got != 0 {
		t.Fatalf("router_settle_errors = %v after a good nack, want 0", got)
	}
	rr.nack(d)
	if got := m.Counter("router_settle_errors"); got != 1 {
		t.Errorf("router_settle_errors = %v after nacking a settled delivery, want 1", got)
	}
}
