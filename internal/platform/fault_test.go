package platform

import (
	"context"
	"net/http"
	"net/http/httptest"
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
		Arch:       V2,
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
	for p.ResultDuplicates() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.ResultDuplicates(); got != 1 {
		t.Fatalf("duplicates dropped = %d, want 1", got)
	}
	if got := p.metrics.Counter("broker_duplicate_results"); got != 1 {
		t.Errorf("broker_duplicate_results = %v, want 1", got)
	}
	if u := p.Broker.Unaccounted(); u != 0 {
		t.Errorf("unaccounted = %d", u)
	}
}

// TestAdminDeadLetterEndpoints: a poison message lands in the DLQ, the
// instructor inspects it over HTTP and redrives it; v1 deployments
// (no broker) answer 501.
func TestAdminDeadLetterEndpoints(t *testing.T) {
	p := New(Options{Arch: V2, Workers: 1})
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

func TestAdminDeadLettersNotImplementedOnV1(t *testing.T) {
	p := New(Options{Arch: V1, Workers: 1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	prof := newClient(t, ts.URL)
	prof.register("Prof", "prof2@example.edu", "instructor")
	if code, _ := prof.do("GET", "/api/v1/admin/deadletters", nil, nil); code != http.StatusNotImplemented {
		t.Errorf("v1 deadletters = %d, want 501", code)
	}
	if code, _ := prof.do("POST", "/api/v1/admin/deadletters/redrive", nil, nil); code != http.StatusNotImplemented {
		t.Errorf("v1 redrive = %d, want 501", code)
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
			rr := newResultRouter(b, nil, m)
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
			if got := m.Counter("broker_duplicate_results"); got != tc.duplicates {
				t.Errorf("broker_duplicate_results = %v, want %v", got, tc.duplicates)
			}
			select {
			case res := <-ch:
				t.Errorf("second delivery: %+v", res)
			default:
			}
		})
	}
}
