package webserver

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"webgpu/internal/db"
	"webgpu/internal/grader"
	"webgpu/internal/labs"
	"webgpu/internal/peerreview"
	"webgpu/internal/sandbox"
	"webgpu/internal/worker"
)

// failingDispatcher simulates the worker tier being down.
func failingDispatcher() Dispatcher {
	return DispatcherFunc(func(ctx context.Context, job *worker.Job) (*worker.Result, error) {
		return nil, errors.New("no workers available")
	})
}

type nullGradebook struct{}

func (nullGradebook) Record(*grader.Grade) error { return nil }
func (nullGradebook) Lookup(string, string) (*grader.Grade, error) {
	return nil, grader.ErrNoSuchGrade
}

func newBrokenFixture(t *testing.T) *fixture {
	f := &fixture{t: t, now: time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC), tokens: map[string]string{}}
	f.srv = New(Config{
		DB:         db.New(),
		Dispatcher: failingDispatcher(),
		Gradebook:  nullGradebook{},
		Reviews:    peerreview.NewStore(0.1),
		Course:     labs.CourseHPP,
		Limits:     sandbox.DefaultLimits(),
		Clock:      func() time.Time { return f.now },
	})
	f.ts = newTestServer(t, f.srv)
	return f
}

func TestWorkerTierDownReturns503(t *testing.T) {
	f := newBrokenFixture(t)
	tok := f.register("a@x", "student")
	for _, path := range []string{
		"/api/v1/labs/vector-add/compile",
		"/api/v1/labs/vector-add/attempt?dataset=0",
		"/api/v1/labs/vector-add/submit",
	} {
		if code, _ := f.req("POST", path, tok, nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s = %d, want 503", path, code)
		}
	}
}

func TestExportWithoutCourseraBook(t *testing.T) {
	f := newBrokenFixture(t)
	prof := f.register("p@x", "instructor")
	if code, _ := f.req("GET", "/api/v1/instructor/export", prof, nil); code != http.StatusNotImplemented {
		t.Errorf("export = %d, want 501", code)
	}
}

func TestMalformedBodies(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	cases := []struct {
		method, path string
	}{
		{"POST", "/api/v1/labs/vector-add/save"},
		{"POST", "/api/v1/labs/vector-add/questions"},
		{"POST", "/api/v1/reviews/complete"},
	}
	for _, c := range cases {
		if code, _ := f.reqRaw(c.method, c.path, tok, "{not json"); code != http.StatusBadRequest {
			t.Errorf("%s %s with garbage = %d, want 400", c.method, c.path, code)
		}
	}
	if code, _ := f.reqRaw("POST", "/api/v1/register", "", "{not json"); code != http.StatusBadRequest {
		t.Errorf("register garbage = %d", code)
	}
	if code, _ := f.reqRaw("POST", "/api/v1/login", "", "{}"); code != http.StatusBadRequest {
		t.Errorf("empty login = %d", code)
	}
}

func TestLoginUnknownEmail(t *testing.T) {
	f := newFixture(t)
	if code, _ := f.req("POST", "/api/v1/login", "",
		map[string]string{"email": "ghost@x"}); code != http.StatusNotFound {
		t.Errorf("ghost login = %d", code)
	}
}

func TestAssignReviewsTooFewStudents(t *testing.T) {
	f := newFixture(t)
	tok := f.register("only@x", "student")
	src := labs.ByID("vector-add").Reference
	f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})
	f.req("POST", "/api/v1/labs/vector-add/submit", tok, nil)
	prof := f.register("p@x", "instructor")
	code, _ := f.req("POST", "/api/v1/instructor/reviews/assign/vector-add", prof,
		map[string]interface{}{"per_student": 3})
	if code != http.StatusBadRequest {
		t.Errorf("assign with 1 student = %d, want 400", code)
	}
}

func TestShareUnknownAttempt(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	if code, _ := f.req("POST", "/api/v1/attempts/att-999999/share", tok, nil); code != http.StatusNotFound {
		t.Errorf("unknown attempt share = %d", code)
	}
	if code, _ := f.req("GET", "/api/v1/share/bogus-token", "", nil); code != http.StatusNotFound {
		t.Errorf("bogus share token = %d", code)
	}
}

func TestGetCodeDefaultsToSkeleton(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	code, body := f.req("GET", "/api/v1/labs/vector-add/code", tok, nil)
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if want := "Insert code to implement vector addition"; !contains(body, want) {
		t.Errorf("default code is not the skeleton: %s", body)
	}
}

func TestGradeBeforeSubmit404(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	if code, _ := f.req("GET", "/api/v1/labs/vector-add/grade", tok, nil); code != http.StatusNotFound {
		t.Errorf("grade before submit = %d", code)
	}
}

func TestBadDatasetQueryRejected(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	src := labs.ByID("vector-add").Reference
	f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})
	for _, bad := range []string{"banana", "-1", "1.5"} {
		code, body := f.req("POST", "/api/v1/labs/vector-add/attempt?dataset="+bad, tok, nil)
		if code != http.StatusBadRequest {
			t.Errorf("attempt with dataset=%q = %d, want 400 (%s)", bad, code, body)
			continue
		}
		var env ErrorBody
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("dataset=%q: body is not the error envelope: %v (%s)", bad, err, body)
		}
		if env.Error.Code != ErrCodeBadDataset || env.Error.Message == "" {
			t.Errorf("dataset=%q envelope = %+v, want code %q", bad, env, ErrCodeBadDataset)
		}
	}
}

// TestErrorEnvelopeShape pins the machine-readable error contract: every
// error response carries {"error":{"code","message"}} with a stable code.
func TestErrorEnvelopeShape(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	cases := []struct {
		method, path, token string
		wantStatus          int
		wantCode            string
	}{
		{"GET", "/api/v1/labs", "", http.StatusUnauthorized, ErrCodeUnauthorized},
		{"GET", "/api/v1/labs/not-a-lab", tok, http.StatusNotFound, ErrCodeNotFound},
		{"GET", "/api/v1/instructor/roster/vector-add", tok, http.StatusForbidden, ErrCodeForbidden},
	}
	for _, c := range cases {
		code, body := f.req(c.method, c.path, c.token, nil)
		if code != c.wantStatus {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, code, c.wantStatus)
			continue
		}
		var env ErrorBody
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s %s: not an envelope: %v (%s)", c.method, c.path, err, body)
			continue
		}
		if env.Error.Code != c.wantCode {
			t.Errorf("%s %s code = %q, want %q", c.method, c.path, env.Error.Code, c.wantCode)
		}
	}
}

func TestOverrideUnknownGrade(t *testing.T) {
	f := newFixture(t)
	prof := f.register("p@x", "instructor")
	code, _ := f.req("POST", "/api/v1/instructor/override", prof,
		map[string]interface{}{"user_id": "ghost", "lab_id": "vector-add", "total": 10})
	if code != http.StatusNotFound {
		t.Errorf("override missing grade = %d", code)
	}
}

func TestCommentValidation(t *testing.T) {
	f := newFixture(t)
	prof := f.register("p@x", "instructor")
	code, _ := f.req("POST", "/api/v1/instructor/comment", prof,
		map[string]string{"user_id": "u", "lab_id": "vector-add"})
	if code != http.StatusBadRequest {
		t.Errorf("empty comment = %d", code)
	}
}

func contains(b []byte, sub string) bool { return strings.Contains(string(b), sub) }
