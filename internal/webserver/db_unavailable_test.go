package webserver

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webgpu/internal/labs"
	"webgpu/internal/worker"
)

// TestReadHandlersReportAClosedDB: a read that fails is a 503 in the
// unified envelope, not a 200 that looks like "no rows". The handlers are
// called behind the auth middleware (which itself cannot pass on a closed
// database); submit reads the student's answers only after the job has
// run, so there the database goes away while the job is out.
func TestReadHandlersReportAClosedDB(t *testing.T) {
	for _, tc := range []struct {
		name    string
		method  string
		body    string
		handler func(*Server) authedHandler
		midJob  bool // close the database during the job, not before the request
	}{
		{"history", "GET", "", func(s *Server) authedHandler { return s.handleHistory }, false},
		{"attempts", "GET", "", func(s *Server) authedHandler { return s.handleAttempts }, false},
		{"hints", "GET", "", func(s *Server) authedHandler { return s.handleHints }, false},
		{"reviews/assign", "POST", "{}", func(s *Server) authedHandler { return s.handleAssignReviews }, false},
		{"submit", "POST", `{"source":"__global__ void vecAdd() {}"}`, func(s *Server) authedHandler { return s.handleSubmit }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			if tc.midJob {
				f.srv.dispatch = DispatcherFunc(func(ctx context.Context, job *worker.Job) (*worker.Result, error) {
					f.srv.db.Close()
					return &worker.Result{JobID: job.ID}, nil
				})
			} else {
				f.srv.db.Close()
			}
			r := httptest.NewRequest(tc.method, "/", strings.NewReader(tc.body))
			r.SetPathValue("lab", labs.ByID("vector-add").ID)
			w := httptest.NewRecorder()
			tc.handler(f.srv)(w, r, &User{ID: "u1", Role: "instructor"})

			var body ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("body %q: %v", w.Body.String(), err)
			}
			if w.Code != http.StatusServiceUnavailable || body.Error.Code != ErrCodeInternal {
				t.Errorf("status %d, code %q (%s); want 503, %q", w.Code, body.Error.Code, body.Error.Message, ErrCodeInternal)
			}
		})
	}
}
