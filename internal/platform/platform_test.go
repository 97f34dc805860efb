package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webgpu/internal/db"
	"webgpu/internal/labs"
	"webgpu/internal/webserver"
	"webgpu/internal/worker"
)

// client is a minimal API client for the integration tests.
type client struct {
	t     *testing.T
	base  string
	token string
	http  *http.Client
}

func newClient(t *testing.T, base string) *client {
	return &client{t: t, base: base, http: &http.Client{Timeout: 120 * time.Second}}
}

func (c *client) do(method, path string, body interface{}, out interface{}) (int, string) {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, path, buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func (c *client) mustDo(method, path string, body, out interface{}) {
	c.t.Helper()
	if code, raw := c.do(method, path, body, out); code >= 300 {
		c.t.Fatalf("%s %s -> %d: %s", method, path, code, raw)
	}
}

func (c *client) register(name, email, role string) string {
	c.t.Helper()
	var resp struct {
		User  webserver.User `json:"user"`
		Token string         `json:"token"`
	}
	c.mustDo("POST", "/api/v1/register",
		map[string]string{"name": name, "email": email, "role": role}, &resp)
	c.token = resp.Token
	return resp.User.ID
}

// studentFlow drives the complete §IV-A student lifecycle on a platform.
func studentFlow(t *testing.T, p *Platform) {
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	alice := newClient(t, ts.URL)
	aliceID := alice.register("Alice", "alice@example.edu", "student")

	// List labs (action: browse the course).
	var labList []map[string]interface{}
	alice.mustDo("GET", "/api/v1/labs", nil, &labList)
	if len(labList) == 0 {
		t.Fatal("no labs listed")
	}

	// Fetch the vector-add lab: skeleton + rendered description (Figure 3).
	var labView map[string]interface{}
	alice.mustDo("GET", "/api/v1/labs/vector-add", nil, &labView)
	if !strings.Contains(labView["description"].(string), "<h1>") {
		t.Error("description not rendered to HTML")
	}
	if labView["code"].(string) == "" {
		t.Error("no skeleton returned")
	}

	// Edit code (action 1): save twice to build history.
	broken := `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = in1[i] + in2[i];
}`
	alice.mustDo("POST", "/api/v1/labs/vector-add/save", map[string]string{"source": broken}, nil)
	good := labs.ByID("vector-add").Reference
	alice.mustDo("POST", "/api/v1/labs/vector-add/save", map[string]string{"source": good}, nil)

	var historyPage struct {
		Total int                 `json:"total"`
		Items []webserver.CodeRec `json:"items"`
	}
	alice.mustDo("GET", "/api/v1/labs/vector-add/history", nil, &historyPage)
	history := historyPage.Items
	if historyPage.Total != 2 || len(history) != 2 || history[0].Rev != 1 || history[1].Rev != 2 {
		t.Fatalf("history = %+v", historyPage)
	}

	// Compile (action 2).
	var compileRes map[string]interface{}
	alice.mustDo("POST", "/api/v1/labs/vector-add/compile", nil, &compileRes)

	// Run against a dataset (action 3).
	var att webserver.AttemptRec
	alice.mustDo("POST", "/api/v1/labs/vector-add/attempt?dataset=0", nil, &att)
	if att.Outcome == nil || !att.Outcome.Correct {
		t.Fatalf("attempt outcome = %+v", att.Outcome)
	}
	if !strings.Contains(att.Outcome.Trace, "input length") {
		t.Errorf("attempt trace missing wbLog: %q", att.Outcome.Trace)
	}

	// Short answers (action 4).
	alice.mustDo("POST", "/api/v1/labs/vector-add/questions",
		map[string][]string{"answers": {"two flops per thread", "guards tail threads"}}, nil)

	// Submit for grading (action 5).
	var sub webserver.SubmissionRec
	alice.mustDo("POST", "/api/v1/labs/vector-add/submit", nil, &sub)
	if sub.Grade == nil || sub.Grade.Total != sub.Grade.Max {
		t.Fatalf("grade = %+v", sub.Grade)
	}

	// Grade recorded and visible (action 6 adjacent).
	var grade map[string]interface{}
	alice.mustDo("GET", "/api/v1/labs/vector-add/grade", nil, &grade)
	if int(grade["total"].(float64)) != sub.Grade.Max {
		t.Errorf("grade total = %v", grade["total"])
	}

	// Gradebook write-back happened.
	if g, err := p.Gradebook.Lookup(aliceID, "vector-add"); err != nil || g.Total != sub.Grade.Max {
		t.Errorf("gradebook: %+v, %v", g, err)
	}

	// Attempts view (action 6).
	var attemptsPage struct {
		Total int                    `json:"total"`
		Items []webserver.AttemptRec `json:"items"`
	}
	alice.mustDo("GET", "/api/v1/labs/vector-add/attempts", nil, &attemptsPage)
	if attemptsPage.Total != 1 || len(attemptsPage.Items) != 1 {
		t.Fatalf("attempts = %+v", attemptsPage)
	}

	// Instructor joins, inspects the roster, comments, and overrides.
	prof := newClient(t, ts.URL)
	prof.register("Prof", "prof@example.edu", "instructor")
	var roster []webserver.RosterRow
	prof.mustDo("GET", "/api/v1/instructor/roster/vector-add", nil, &roster)
	if len(roster) != 1 || roster[0].UserID != aliceID || roster[0].TotalGrade != sub.Grade.Max {
		t.Fatalf("roster = %+v", roster)
	}
	prof.mustDo("POST", "/api/v1/instructor/comment",
		map[string]string{"user_id": aliceID, "lab_id": "vector-add", "text": "nice work"}, nil)
	var overridden map[string]interface{}
	prof.mustDo("POST", "/api/v1/instructor/override",
		map[string]interface{}{"user_id": aliceID, "lab_id": "vector-add",
			"total": 50, "comment": "late penalty"}, &overridden)
	if int(overridden["total"].(float64)) != 50 {
		t.Errorf("override = %v", overridden)
	}

	// Export includes the overridden grade.
	code, csv := prof.do("GET", "/api/v1/instructor/export", nil, nil)
	if code != 200 || !strings.Contains(csv, "vector-add,50") {
		t.Errorf("export = %d %q", code, csv)
	}

	// Students cannot reach instructor tools.
	if code, _ := alice.do("GET", "/api/v1/instructor/roster/vector-add", nil, nil); code != http.StatusForbidden {
		t.Errorf("student roster access = %d", code)
	}
}

func TestStudentFlowV1(t *testing.T) {
	p := New(Options{Arch: V1, Workers: 2})
	defer p.Close()
	studentFlow(t, p)
}

func TestStudentFlowV2(t *testing.T) {
	p := New(Options{Arch: V2, Workers: 2})
	defer p.Close()
	studentFlow(t, p)
}

func TestV2MPIJobRouting(t *testing.T) {
	// A fleet of 2-GPU MPI-capable workers serves the mpi-stencil lab
	// end-to-end through the broker (course 598 uses it).
	p := New(Options{Arch: V2, Workers: 1, GPUsPerWorker: 2, Course: labs.CourseECE598})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	c := newClient(t, ts.URL)
	c.register("Grad", "grad@example.edu", "student")
	l := labs.ByID("mpi-stencil")
	c.mustDo("POST", "/api/v1/labs/mpi-stencil/save", map[string]string{"source": l.Reference}, nil)
	var att webserver.AttemptRec
	c.mustDo("POST", "/api/v1/labs/mpi-stencil/attempt?dataset=0", nil, &att)
	if att.Outcome == nil || !att.Outcome.Correct {
		t.Fatalf("mpi attempt = %+v", att.Outcome)
	}
}

func TestCourseScopesLabs(t *testing.T) {
	p := New(Options{Arch: V1, Workers: 1, Course: labs.CourseHPP})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	c := newClient(t, ts.URL)
	c.register("S", "s@example.edu", "student")
	// sgemm is a 598 lab, not HPP.
	if code, _ := c.do("GET", "/api/v1/labs/sgemm", nil, nil); code != http.StatusNotFound {
		t.Errorf("sgemm in HPP = %d", code)
	}
}

func TestScaleUpAndDown(t *testing.T) {
	for _, arch := range []Architecture{V1, V2} {
		p := New(Options{Arch: arch, Workers: 1})
		p.Scale(4)
		if got := p.Workers(); got != 4 {
			t.Errorf("%v: scaled to %d, want 4", arch, got)
		}
		p.Scale(2)
		if got := p.Workers(); got != 2 {
			t.Errorf("%v: scaled down to %d, want 2", arch, got)
		}
		p.Close()
	}
}

func TestV2SubmissionSurvivesWorkerChurn(t *testing.T) {
	// Jobs published while the fleet is empty complete once workers join —
	// the elasticity argument for the poll model (§VI-A).
	p := New(Options{Arch: V2, Workers: 0, DispatchWait: time.Minute})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	c := newClient(t, ts.URL)
	c.register("S", "s@example.edu", "student")
	l := labs.ByID("vector-add")
	c.mustDo("POST", "/api/v1/labs/vector-add/save", map[string]string{"source": l.Reference}, nil)

	done := make(chan webserver.AttemptRec, 1)
	go func() {
		var att webserver.AttemptRec
		c.mustDo("POST", "/api/v1/labs/vector-add/attempt?dataset=0", nil, &att)
		done <- att
	}()
	time.Sleep(50 * time.Millisecond) // job sits in the queue, no workers
	p.Scale(1)
	select {
	case att := <-done:
		if att.Outcome == nil || !att.Outcome.Correct {
			t.Fatalf("attempt after scale-up = %+v", att.Outcome)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never completed after workers joined")
	}
}

func TestBrokerMirrorsToStandby(t *testing.T) {
	p := New(Options{Arch: V2, Workers: 1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	c := newClient(t, ts.URL)
	c.register("S", "s@example.edu", "student")
	l := labs.ByID("vector-add")
	c.mustDo("POST", "/api/v1/labs/vector-add/save", map[string]string{"source": l.Reference}, nil)
	var att webserver.AttemptRec
	c.mustDo("POST", "/api/v1/labs/vector-add/attempt?dataset=0", nil, &att)

	if p.StandbyBroker.Stats().Published == 0 {
		t.Error("standby broker received no mirrored publishes")
	}
	// The job and its result are acked on the primary (the router acks
	// just after it hands the result over), so the standby forgets both.
	held := func() int {
		return p.StandbyBroker.Depth(worker.TopicJobs) + p.StandbyBroker.Depth(worker.TopicResults)
	}
	deadline := time.Now().Add(2 * time.Second)
	for held() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := held(); n != 0 {
		t.Errorf("standby still holds %d messages of a finished job", n)
	}
}

func TestV2ReplicaServesReads(t *testing.T) {
	p := New(Options{Arch: V2, Workers: 1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	c := newClient(t, ts.URL)
	c.register("S", "s@example.edu", "student")
	c.mustDo("POST", "/api/v1/labs/vector-add/save", map[string]string{"source": "x"}, nil)
	if !p.Replica.WaitCaughtUp(5 * time.Second) {
		t.Fatalf("replica lag = %d", p.Replica.Lag())
	}
	if err := p.Replica.View(func(tx *db.Tx) error {
		if tx.Count("history") == 0 {
			return fmt.Errorf("replica has no history rows")
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}

func TestDashboardStatus(t *testing.T) {
	for _, arch := range []Architecture{V1, V2} {
		p := New(Options{Arch: arch, Workers: 2})
		ts := httptest.NewServer(p.Handler())
		c := newClient(t, ts.URL)
		c.register("S", "s@example.edu", "student")
		c.mustDo("POST", "/api/v1/labs/vector-add/save",
			map[string]string{"source": labs.ByID("vector-add").Reference}, nil)
		c.mustDo("POST", "/api/v1/labs/vector-add/submit", nil, nil)

		st := p.Status()
		if st.Workers != 2 {
			t.Errorf("%v: workers = %d", arch, st.Workers)
		}
		if st.DBSeq == 0 {
			t.Errorf("%v: no db commits recorded", arch)
		}
		if st.GradebookRows != 1 {
			t.Errorf("%v: gradebook rows = %d", arch, st.GradebookRows)
		}
		out := st.Render()
		if !strings.Contains(out, "workers:        2") {
			t.Errorf("%v: render missing workers:\n%s", arch, out)
		}
		if arch == V2 && !strings.Contains(out, "replica lag") {
			t.Errorf("v2 render missing replica lag:\n%s", out)
		}
		if arch == V1 && !strings.Contains(out, "evictions") {
			t.Errorf("v1 render missing evictions:\n%s", out)
		}
		ts.Close()
		p.Close()
	}
}

func TestHealthEndpoint(t *testing.T) {
	p := New(Options{Arch: V1, Workers: 1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestLabPageHTML(t *testing.T) {
	p := New(Options{Arch: V1, Workers: 1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	c := newClient(t, ts.URL)
	c.register("S", "s@example.edu", "student")
	req, _ := http.NewRequest("GET", ts.URL+"/labs/vector-add/view", nil)
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	page := buf.String()
	for _, want := range []string{"<textarea", "Compile", "Dataset 0", "Attempts | History"} {
		if !strings.Contains(page, want) {
			t.Errorf("lab page missing %q", want)
		}
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	p := New(Options{Arch: V1, Workers: 1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	c := newClient(t, ts.URL)
	c.register("A", "dup@example.edu", "student")
	c2 := newClient(t, ts.URL)
	if code, _ := c2.do("POST", "/api/v1/register",
		map[string]string{"name": "B", "email": "dup@example.edu"}, nil); code != http.StatusConflict {
		t.Errorf("duplicate register = %d", code)
	}
	// But login works.
	var resp map[string]interface{}
	c2.mustDo("POST", "/api/v1/login", map[string]string{"email": "dup@example.edu"}, &resp)
	if resp["token"] == "" {
		t.Error("login returned no token")
	}
}
