package webserver

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// fakeDispatcher executes jobs inline on a single node (no queue, no
// registry) so webserver behaviour can be tested in isolation.
func fakeDispatcher() Dispatcher {
	node := worker.NewNode(worker.DefaultNodeConfig("test-worker"))
	return DispatcherFunc(func(ctx context.Context, job *worker.Job) (*worker.Result, error) {
		return node.Execute(ctx, job), nil
	})
}

type fixture struct {
	t      testing.TB
	srv    *Server
	ts     *httptest.Server
	now    time.Time
	tokens map[string]string
}

func newFixture(t *testing.T) *fixture {
	f := &fixture{t: t, now: time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC), tokens: map[string]string{}}
	f.srv = New(Config{
		DB:         db.New(),
		Dispatcher: fakeDispatcher(),
		Gradebook:  grader.NewCourseraBook("test"),
		Reviews:    peerreview.NewStore(0.10),
		Course:     labs.CourseHPP,
		Limits:     sandbox.DefaultLimits(),
		Clock:      func() time.Time { return f.now },
	})
	f.ts = httptest.NewServer(f.srv.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

// newTestServer wraps httptest for fixtures built outside newFixture.
func newTestServer(t *testing.T, srv *Server) *httptest.Server {
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// reqRaw sends a raw (possibly malformed) body.
func (f *fixture) reqRaw(method, path, token, raw string) (int, []byte) {
	f.t.Helper()
	req, err := http.NewRequest(method, f.ts.URL+path, strings.NewReader(raw))
	if err != nil {
		f.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func (f *fixture) req(method, path, token string, body interface{}) (int, []byte) {
	f.t.Helper()
	var rd bytes.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = *bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, f.ts.URL+path, &rd)
	if err != nil {
		f.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func (f *fixture) register(email, role string) string {
	f.t.Helper()
	code, body := f.req("POST", "/api/v1/register", "",
		map[string]string{"name": email, "email": email, "role": role})
	if code != http.StatusCreated {
		f.t.Fatalf("register: %d %s", code, body)
	}
	var resp struct {
		Token string `json:"token"`
	}
	_ = json.Unmarshal(body, &resp)
	f.tokens[email] = resp.Token
	return resp.Token
}

func TestAuthRequired(t *testing.T) {
	f := newFixture(t)
	if code, _ := f.req("GET", "/api/v1/labs", "", nil); code != http.StatusUnauthorized {
		t.Errorf("no token = %d", code)
	}
	if code, _ := f.req("GET", "/api/v1/labs", "bogus-token", nil); code != http.StatusUnauthorized {
		t.Errorf("bad token = %d", code)
	}
}

func TestInvalidRole(t *testing.T) {
	f := newFixture(t)
	code, _ := f.req("POST", "/api/v1/register", "",
		map[string]string{"name": "x", "email": "x@x", "role": "superuser"})
	if code != http.StatusBadRequest {
		t.Errorf("bad role = %d", code)
	}
}

func TestSubmitRateLimited(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	src := labs.ByID("vector-add").Reference
	f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})

	code, _ := f.req("POST", "/api/v1/labs/vector-add/submit", tok, nil)
	if code != http.StatusOK {
		t.Fatalf("first submit = %d", code)
	}
	// Immediate resubmit hits the §III-C rate limit.
	code, body := f.req("POST", "/api/v1/labs/vector-add/submit", tok, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("resubmit = %d %s", code, body)
	}
	// After the interval passes it works again.
	f.now = f.now.Add(time.Minute)
	if code, _ := f.req("POST", "/api/v1/labs/vector-add/submit", tok, nil); code != http.StatusOK {
		t.Fatalf("post-interval submit = %d", code)
	}
}

func TestShareOnlyAfterDeadline(t *testing.T) {
	f := newFixture(t)
	deadline := f.now.Add(24 * time.Hour)
	f.srv.SetDeadline("vector-add", deadline)
	tok := f.register("a@x", "student")
	src := labs.ByID("vector-add").Reference
	f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})
	code, body := f.req("POST", "/api/v1/labs/vector-add/attempt?dataset=0", tok, nil)
	if code != http.StatusOK {
		t.Fatalf("attempt = %d %s", code, body)
	}
	var att AttemptRec
	_ = json.Unmarshal(body, &att)

	// Before the deadline: sharing forbidden (§IV-B).
	code, _ = f.req("POST", "/api/v1/attempts/"+att.ID+"/share", tok, nil)
	if code != http.StatusForbidden {
		t.Fatalf("pre-deadline share = %d", code)
	}
	// After the deadline: a public link is issued and world-readable.
	f.now = deadline.Add(time.Hour)
	code, body = f.req("POST", "/api/v1/attempts/"+att.ID+"/share", tok, nil)
	if code != http.StatusOK {
		t.Fatalf("post-deadline share = %d %s", code, body)
	}
	var share map[string]string
	_ = json.Unmarshal(body, &share)
	code, body = f.req("GET", share["url"], "", nil) // no auth: public
	if code != http.StatusOK || !strings.Contains(string(body), att.ID) {
		t.Errorf("public view = %d %s", code, body)
	}
}

func TestShareSomeoneElsesAttempt(t *testing.T) {
	f := newFixture(t)
	tokA := f.register("a@x", "student")
	tokB := f.register("b@x", "student")
	src := labs.ByID("vector-add").Reference
	f.req("POST", "/api/v1/labs/vector-add/save", tokA, map[string]string{"source": src})
	_, body := f.req("POST", "/api/v1/labs/vector-add/attempt?dataset=0", tokA, nil)
	var att AttemptRec
	_ = json.Unmarshal(body, &att)
	if code, _ := f.req("POST", "/api/v1/attempts/"+att.ID+"/share", tokB, nil); code != http.StatusForbidden {
		t.Errorf("cross-user share = %d", code)
	}
}

func TestLateSubmissionFlagged(t *testing.T) {
	f := newFixture(t)
	f.srv.SetDeadline("vector-add", f.now.Add(-time.Hour)) // already past
	tok := f.register("a@x", "student")
	src := labs.ByID("vector-add").Reference
	f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})
	_, body := f.req("POST", "/api/v1/labs/vector-add/submit", tok, nil)
	var sub SubmissionRec
	_ = json.Unmarshal(body, &sub)
	if !sub.Late {
		t.Error("late submission not flagged")
	}
}

func TestCompileErrorSurfaced(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	code, body := f.req("POST", "/api/v1/labs/vector-add/compile", tok,
		map[string]string{"source": "__global__ void vecAdd( {"})
	if code != http.StatusOK {
		t.Fatalf("compile = %d", code)
	}
	var res worker.Result
	_ = json.Unmarshal(body, &res)
	if len(res.Outcomes) != 1 || res.Outcomes[0].Compiled {
		t.Fatalf("outcomes = %+v", res.Outcomes)
	}
	if !strings.Contains(res.Outcomes[0].CompileError, "error") {
		t.Errorf("compile error = %q", res.Outcomes[0].CompileError)
	}
}

func TestBlacklistRejectionSurfaced(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	code, body := f.req("POST", "/api/v1/labs/vector-add/compile", tok,
		map[string]string{"source": `__global__ void vecAdd(float*a,float*b,float*c,int n){ asm("x"); }`})
	if code != http.StatusOK {
		t.Fatalf("compile = %d", code)
	}
	var res worker.Result
	_ = json.Unmarshal(body, &res)
	if !res.Rejected {
		t.Fatalf("blacklisted source not rejected: %+v", res)
	}
}

func TestQuestionsValidation(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	code, _ := f.req("POST", "/api/v1/labs/vector-add/questions", tok,
		map[string][]string{"answers": {"1", "2", "3", "4", "5"}})
	if code != http.StatusBadRequest {
		t.Errorf("too many answers = %d", code)
	}
}

func TestUnknownLab404(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	if code, _ := f.req("GET", "/api/v1/labs/not-a-lab", tok, nil); code != http.StatusNotFound {
		t.Errorf("unknown lab = %d", code)
	}
}

func TestPeerReviewEndpoints(t *testing.T) {
	f := newFixture(t)
	// Three students submit; the instructor assigns 1 review each.
	emails := []string{"a@x", "b@x", "c@x"}
	src := labs.ByID("vector-add").Reference
	for i, e := range emails {
		tok := f.register(e, "student")
		f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})
		if code, body := f.req("POST", "/api/v1/labs/vector-add/submit", tok, nil); code != 200 {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
	}
	prof := f.register("p@x", "instructor")
	code, body := f.req("POST", "/api/v1/instructor/reviews/assign/vector-add", prof,
		map[string]interface{}{"per_student": 1, "seed": 42})
	if code != http.StatusOK {
		t.Fatalf("assign = %d %s", code, body)
	}
	var assigned map[string]int
	_ = json.Unmarshal(body, &assigned)
	if assigned["assignments"] != 3 {
		t.Fatalf("assignments = %+v", assigned)
	}
	// Student A completes their review.
	_, body = f.req("GET", "/api/v1/reviews", f.tokens["a@x"], nil)
	var mine struct {
		Assignments []peerreview.Assignment `json:"assignments"`
		Weight      float64                 `json:"weight"`
	}
	_ = json.Unmarshal(body, &mine)
	if len(mine.Assignments) != 1 || mine.Weight != 0.10 {
		t.Fatalf("my reviews = %+v", mine)
	}
	code, body = f.req("POST", "/api/v1/reviews/complete", f.tokens["a@x"],
		map[string]string{"lab_id": "vector-add", "author": mine.Assignments[0].Author,
			"text": "looks right"})
	if code != http.StatusOK {
		t.Fatalf("complete = %d %s", code, body)
	}
	var done struct {
		Completion float64 `json:"completion"`
		Bonus      float64 `json:"bonus"`
	}
	_ = json.Unmarshal(body, &done)
	if done.Completion != 1 || done.Bonus != 0.10 {
		t.Errorf("completion = %+v", done)
	}
	// Completing an unassigned review fails.
	code, _ = f.req("POST", "/api/v1/reviews/complete", f.tokens["a@x"],
		map[string]string{"lab_id": "vector-add", "author": "nobody"})
	if code != http.StatusBadRequest {
		t.Errorf("bogus review completion = %d", code)
	}
	_ = rand.Int // keep math/rand import meaningful if assignments change
}

func TestStudentDetailView(t *testing.T) {
	f := newFixture(t)
	tok := f.register("ada@x", "student")
	src := labs.ByID("vector-add").Reference
	f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": "// draft"})
	f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})
	f.req("POST", "/api/v1/labs/vector-add/attempt?dataset=0", tok, nil)
	f.req("POST", "/api/v1/labs/vector-add/questions", tok,
		map[string][]string{"answers": {"two flops"}})
	f.req("POST", "/api/v1/labs/vector-add/submit", tok, nil)

	// Find ada's user id via the roster.
	prof := f.register("prof@x", "instructor")
	_, rosterBody := f.req("GET", "/api/v1/instructor/roster/vector-add", prof, nil)
	var roster []RosterRow
	_ = json.Unmarshal(rosterBody, &roster)
	if len(roster) != 1 {
		t.Fatalf("roster = %+v", roster)
	}
	f.req("POST", "/api/v1/instructor/comment", prof,
		map[string]string{"user_id": roster[0].UserID, "lab_id": "vector-add", "text": "tidy"})

	code, body := f.req("GET", "/api/v1/instructor/student/"+roster[0].UserID+"/vector-add", prof, nil)
	if code != http.StatusOK {
		t.Fatalf("detail = %d %s", code, body)
	}
	var detail struct {
		Student     User            `json:"student"`
		History     []CodeRec       `json:"history"`
		Submissions []SubmissionRec `json:"submissions"`
		Attempts    []AttemptRec    `json:"attempts"`
		Answers     AnswersRec      `json:"answers"`
		Grade       *struct {
			Total int `json:"total"`
		} `json:"grade"`
		Comments []CommentRec `json:"comments"`
	}
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Student.Email != "ada@x" {
		t.Errorf("student = %+v", detail.Student)
	}
	// The submit also saved code implicitly? No — two explicit saves.
	if len(detail.History) != 2 {
		t.Errorf("history = %d revisions", len(detail.History))
	}
	if len(detail.Submissions) != 1 || len(detail.Attempts) != 1 {
		t.Errorf("submissions=%d attempts=%d", len(detail.Submissions), len(detail.Attempts))
	}
	if len(detail.Answers.Answers) != 1 || detail.Grade == nil || detail.Grade.Total == 0 {
		t.Errorf("answers=%+v grade=%+v", detail.Answers, detail.Grade)
	}
	if len(detail.Comments) != 1 || detail.Comments[0].Text != "tidy" {
		t.Errorf("comments = %+v", detail.Comments)
	}
	// Unknown student 404s; students may not access it.
	if code, _ := f.req("GET", "/api/v1/instructor/student/ghost/vector-add", prof, nil); code != http.StatusNotFound {
		t.Errorf("ghost = %d", code)
	}
	if code, _ := f.req("GET", "/api/v1/instructor/student/"+roster[0].UserID+"/vector-add", tok, nil); code != http.StatusForbidden {
		t.Errorf("student access = %d", code)
	}
}

func TestHintsEndpoint(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")

	// No attempt yet: the analyzer says to run first.
	code, body := f.req("GET", "/api/v1/labs/vector-add/hints", tok, nil)
	if code != http.StatusOK {
		t.Fatalf("hints = %d %s", code, body)
	}
	var resp struct {
		Attempt string `json:"attempt"`
		Hints   []struct {
			Code   string `json:"code"`
			Detail string `json:"detail"`
		} `json:"hints"`
	}
	_ = json.Unmarshal(body, &resp)
	if len(resp.Hints) == 0 || resp.Hints[0].Code != "run-first" {
		t.Fatalf("hints = %+v", resp.Hints)
	}

	// A buggy attempt: the missing-bounds-check hint appears on demand.
	src := `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = in1[i] + in2[i];
}`
	f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})
	f.req("POST", "/api/v1/labs/vector-add/attempt?dataset=0", tok, nil)
	_, body = f.req("GET", "/api/v1/labs/vector-add/hints", tok, nil)
	resp.Hints = nil
	_ = json.Unmarshal(body, &resp)
	if len(resp.Hints) == 0 || resp.Hints[0].Code != "missing-bounds-check" {
		t.Fatalf("hints after buggy attempt = %+v", resp.Hints)
	}
	if resp.Attempt == "" {
		t.Error("hint response does not reference the analyzed attempt")
	}
}

func TestAttemptStoredOnWorkerError(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	// Out-of-bounds kernel: runtime error surfaces in the attempt outcome.
	src := `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = in1[i] + in2[i];
}`
	f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})
	code, body := f.req("POST", "/api/v1/labs/vector-add/attempt?dataset=0", tok, nil)
	if code != http.StatusOK {
		t.Fatalf("attempt = %d", code)
	}
	var att AttemptRec
	_ = json.Unmarshal(body, &att)
	if att.Outcome == nil || att.Outcome.RuntimeError == "" {
		t.Fatalf("runtime error not recorded: %+v", att.Outcome)
	}
}

func TestHistoryPagination(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	for _, src := range []string{"// v1", "// v2", "// v3"} {
		f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})
	}
	type histPage struct {
		Total  int       `json:"total"`
		Limit  int       `json:"limit"`
		Offset int       `json:"offset"`
		Items  []CodeRec `json:"items"`
	}
	code, body := f.req("GET", "/api/v1/labs/vector-add/history?limit=2&offset=1", tok, nil)
	if code != http.StatusOK {
		t.Fatalf("history = %d %s", code, body)
	}
	var page histPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 3 || page.Limit != 2 || page.Offset != 1 {
		t.Fatalf("page meta = %+v", page)
	}
	if len(page.Items) != 2 || page.Items[0].Rev != 2 || page.Items[1].Rev != 3 {
		t.Fatalf("page items = %+v", page.Items)
	}

	// Offset past the end yields an empty (not null) window.
	_, body = f.req("GET", "/api/v1/labs/vector-add/history?offset=99", tok, nil)
	page = histPage{}
	_ = json.Unmarshal(body, &page)
	if page.Total != 3 || page.Items == nil || len(page.Items) != 0 {
		t.Fatalf("past-the-end page = %+v", page)
	}

	// Malformed paging parameters are rejected with the error envelope.
	for _, q := range []string{"limit=banana", "offset=-2", "limit=-1"} {
		code, body := f.req("GET", "/api/v1/labs/vector-add/history?"+q, tok, nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400 (%s)", q, code, body)
			continue
		}
		var env ErrorBody
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != ErrCodeBadRequest {
			t.Errorf("%s envelope = %s", q, body)
		}
	}
}

func TestAttemptCarriesTraceID(t *testing.T) {
	f := newFixture(t)
	tok := f.register("a@x", "student")
	src := labs.ByID("vector-add").Reference
	f.req("POST", "/api/v1/labs/vector-add/save", tok, map[string]string{"source": src})
	code, body := f.req("POST", "/api/v1/labs/vector-add/attempt?dataset=0", tok, nil)
	if code != http.StatusOK {
		t.Fatalf("attempt = %d", code)
	}
	var att AttemptRec
	_ = json.Unmarshal(body, &att)
	if att.TraceID == "" {
		t.Errorf("attempt has no trace_id: %s", body)
	}
}
