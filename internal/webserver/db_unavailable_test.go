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
// unified envelope, not a 200 that looks like "no rows" and not a 401
// that logs the student out. Every request goes through the auth
// middleware with a real session. The first loses the database after auth
// has passed (submit reads the student's answers only after the job has
// run, so there it goes away while the job is out) and the handler's own
// read must report it; the second finds it already closed, and auth must.
// A bodiless attempt grades the saved source: when that cannot be read no
// job may go out, least of all one carrying the empty string.
func TestReadHandlersReportAClosedDB(t *testing.T) {
	for _, tc := range []struct {
		name    string
		method  string
		body    string
		handler func(*Server) authedHandler
		midJob  bool // close the database during the job, not before the handler
	}{
		{"history", "GET", "", func(s *Server) authedHandler { return s.handleHistory }, false},
		{"attempts", "GET", "", func(s *Server) authedHandler { return s.handleAttempts }, false},
		{"hints", "GET", "", func(s *Server) authedHandler { return s.handleHints }, false},
		{"grade", "GET", "", func(s *Server) authedHandler { return s.handleGetGrade }, false},
		{"code", "GET", "", func(s *Server) authedHandler { return s.handleGetCode }, false},
		{"attempt", "POST", "", func(s *Server) authedHandler { return s.handleAttempt }, false},
		{"reviews/assign", "POST", "{}", func(s *Server) authedHandler { return s.handleAssignReviews }, false},
		{"submit", "POST", `{"source":"__global__ void vecAdd() {}"}`, func(s *Server) authedHandler { return s.handleSubmit }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			token := f.register("prof@example.edu", "instructor")
			dispatched := 0
			f.srv.dispatch = DispatcherFunc(func(ctx context.Context, job *worker.Job) (*worker.Result, error) {
				dispatched++
				f.srv.db.Close()
				return &worker.Result{JobID: job.ID}, nil
			})
			authed := f.srv.auth(func(w http.ResponseWriter, r *http.Request, u *User) {
				if !tc.midJob {
					f.srv.db.Close()
				}
				tc.handler(f.srv)(w, r, u)
			})
			for _, who := range []string{"handler", "auth"} {
				r := httptest.NewRequest(tc.method, "/", strings.NewReader(tc.body))
				r.Header.Set("Authorization", "Bearer "+token)
				r.SetPathValue("lab", labs.ByID("vector-add").ID)
				w := httptest.NewRecorder()
				authed(w, r)

				var body ErrorBody
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
					t.Fatalf("%s: body %q: %v", who, w.Body.String(), err)
				}
				if fromAuth := strings.HasPrefix(body.Error.Message, "session lookup"); fromAuth != (who == "auth") {
					t.Errorf("%s did not answer: %s", who, body.Error.Message)
				}
				if w.Code != http.StatusServiceUnavailable || body.Error.Code != ErrCodeInternal {
					t.Errorf("%s: status %d, code %q (%s); want 503, %q", who, w.Code, body.Error.Code, body.Error.Message, ErrCodeInternal)
				}
			}
			if !tc.midJob && dispatched != 0 {
				t.Errorf("dispatched %d jobs over a closed database", dispatched)
			}
		})
	}
}
