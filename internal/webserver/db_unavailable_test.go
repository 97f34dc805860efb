package webserver

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/db"
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

// closingClock is a server clock that, once armed, closes the store at
// its next reading.
type closingClock struct {
	clock.Clock
	db    *db.DB
	armed atomic.Bool
}

func (c *closingClock) Now() time.Time {
	if c.armed.Swap(false) {
		c.db.Close()
	}
	return c.Clock.Now()
}

// TestWriteHandlersReportAClosedDB: a write that finds the store closed
// is a 503 in the unified envelope, as a read is. Each row loses the
// store right before its handler's write: at once where the write is the
// handler's first store access, else at the server clock's next reading
// after the point the row arms it (the job's return, or the handler's
// start), which is the stamp the handler puts on the record it writes.
func TestWriteHandlersReportAClosedDB(t *testing.T) {
	const attemptID = "att-shared"
	for _, tc := range []struct {
		name    string
		body    string
		handler func(*Server) authedHandler
		arm     string // "": close before the handler; "handler" or "job": arm the clock there
	}{
		{"save", `{"source":"x"}`, func(s *Server) authedHandler { return s.handleSave }, ""},
		{"attempt", "", func(s *Server) authedHandler { return s.handleAttempt }, "job"},
		{"answers", `{"answers":["a"]}`, func(s *Server) authedHandler { return s.handleAnswerQuestions }, ""},
		{"grade", `{"source":"x"}`, func(s *Server) authedHandler { return s.handleSubmit }, "job"},
		{"share", "", func(s *Server) authedHandler { return s.handleShare }, "handler"},
		{"comment", `{"user_id":"u","lab_id":"vector-add","text":"good"}`, func(s *Server) authedHandler { return s.handleComment }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			token := f.register("prof@example.edu", "instructor")
			cc := &closingClock{Clock: f.clk, db: f.srv.db}
			f.srv.clock = cc
			dispatch := fakeDispatcher()
			f.srv.dispatch = DispatcherFunc(func(ctx context.Context, job *worker.Job) (*worker.Result, error) {
				res, err := dispatch.Dispatch(ctx, job)
				cc.armed.Store(tc.arm == "job")
				return res, err
			})
			// The attempt to share, owned by the user and past its lab's deadline.
			f.srv.SetDeadline("vector-add", f.clk.Now().Add(-time.Hour))
			if err := f.srv.db.Update(func(tx *db.Tx) error {
				var sess sessionRec
				if err := tx.Get("sessions", token, &sess); err != nil {
					return err
				}
				return tx.Put("attempts", attemptID, AttemptRec{ID: attemptID, UserID: sess.UserID, LabID: "vector-add"})
			}); err != nil {
				t.Fatal(err)
			}
			authed := f.srv.auth(func(w http.ResponseWriter, r *http.Request, u *User) {
				if tc.arm == "" {
					f.srv.db.Close()
				}
				cc.armed.Store(tc.arm == "handler")
				tc.handler(f.srv)(w, r, u)
			})
			r := httptest.NewRequest("POST", "/", strings.NewReader(tc.body))
			r.Header.Set("Authorization", "Bearer "+token)
			r.SetPathValue("lab", labs.ByID("vector-add").ID)
			r.SetPathValue("attempt", attemptID)
			w := httptest.NewRecorder()
			authed(w, r)

			var body ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("body %q: %v", w.Body.String(), err)
			}
			if w.Code != http.StatusServiceUnavailable || body.Error.Code != ErrCodeInternal ||
				!strings.Contains(body.Error.Message, db.ErrClosed.Error()) {
				t.Errorf("status %d, code %q (%s); want 503, %q, the store closed", w.Code, body.Error.Code, body.Error.Message, ErrCodeInternal)
			}
			if cc.armed.Load() {
				t.Error("the store was never closed: the handler took no reading of its clock after the arming point")
			}
		})
	}
}
