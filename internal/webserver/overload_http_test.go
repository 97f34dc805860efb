package webserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/db"
	"webgpu/internal/devsession"
	"webgpu/internal/grader"
	"webgpu/internal/labs"
	"webgpu/internal/overload"
	"webgpu/internal/peerreview"
	"webgpu/internal/sandbox"
	"webgpu/internal/worker"
)

// overloadFixture builds a server with an injectable-pressure admission
// controller, so tests steer the shed decisions deterministically. The
// broker-backlog signal is mutex-guarded: background devsession loops
// read it concurrently with the test mutating it.
type overloadFixture struct {
	*fixture
	ctrl  *overload.Controller
	mu    sync.Mutex
	depth int
}

func (f *overloadFixture) setDepth(n int) {
	f.mu.Lock()
	f.depth = n
	f.mu.Unlock()
}

func newOverloadFixture(t *testing.T, limits map[overload.Class]overload.ClassLimit) *overloadFixture {
	of := &overloadFixture{}
	of.fixture = &fixture{t: t, clk: clock.NewManual(time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC)), tokens: map[string]string{}}
	of.ctrl = overload.New(overload.Config{Clock: of.clk, Limits: limits, QueueDepthLimit: 100})
	of.ctrl.SetQueueDepth(func() int {
		of.mu.Lock()
		defer of.mu.Unlock()
		return of.depth
	})
	lim := sandbox.DefaultLimits()
	lim.SubmitInterval = time.Millisecond // keep the §III-C limiter out of the way
	of.srv = New(Config{
		DB:         db.New(),
		Dispatcher: fakeDispatcher(),
		Gradebook:  grader.NewCourseraBook("test"),
		Reviews:    peerreview.NewStore(0.10),
		Course:     labs.CourseHPP,
		Limits:     lim,
		Clock:      of.clk,
		Overload:   of.ctrl,
	})
	of.ts = newTestServer(t, of.srv)
	return of
}

// assertShedEnvelope checks the full shed contract on a response: 429,
// a Retry-After header of at least one second, and the unified
// {"error":{"code","message"}} envelope with the overloaded code.
func assertShedEnvelope(t *testing.T, code int, headers http.Header, body []byte) {
	t.Helper()
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", code, body)
	}
	ra := headers.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", ra)
	}
	var env ErrorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("shed body is not the unified envelope: %v (%s)", err, body)
	}
	if env.Error.Code != ErrCodeOverloaded {
		t.Fatalf("error code = %q, want %q (message %q)", env.Error.Code, ErrCodeOverloaded, env.Error.Message)
	}
	if env.Error.Message == "" {
		t.Fatal("shed envelope has an empty message")
	}
}

// reqFull is f.req plus response headers, which the shed contract needs.
func (f *fixture) reqFull(method, path, token string, body interface{}) (int, http.Header, []byte) {
	f.t.Helper()
	var rd io.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, f.ts.URL+path, rd)
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
	buf, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, buf
}

// openSession opens a live session on vector-add and returns its id.
func (f *overloadFixture) openSession(token string) string {
	f.t.Helper()
	code, body := f.req("POST", "/api/v1/labs/vector-add/session", token, nil)
	if code != http.StatusCreated {
		f.t.Fatalf("open session: %d %s", code, body)
	}
	var sess struct {
		ID string `json:"session_id"`
	}
	if err := json.Unmarshal(body, &sess); err != nil {
		f.t.Fatalf("open session: %v (%s)", err, body)
	}
	return sess.ID
}

// TestShedPathsReturnUnifiedEnvelope drives every distinct shed path —
// backpressure and saturation, for reads and drafts — through real HTTP
// and asserts the full contract on each; every shed is overloaded.
func TestShedPathsReturnUnifiedEnvelope(t *testing.T) {
	cases := []struct {
		name   string
		limits map[overload.Class]overload.ClassLimit
		run    func(t *testing.T, f *overloadFixture) (int, http.Header, []byte)
	}{
		{
			name: "read backpressure shed",
			run: func(t *testing.T, f *overloadFixture) (int, http.Header, []byte) {
				f.setDepth(60) // pressure 0.6 >= read's 0.5
				tok := f.register("bp@test.edu", "student")
				return f.reqFull("GET", "/api/v1/labs/vector-add/history", tok, nil)
			},
		},
		{
			name: "draft backpressure shed",
			run: func(t *testing.T, f *overloadFixture) (int, http.Header, []byte) {
				tok := f.register("draft@test.edu", "student")
				sess := f.openSession(tok)
				f.setDepth(80) // pressure 0.8 >= draft's 0.75
				return f.reqFull("POST", "/api/v1/sessions/"+sess+"/draft", tok,
					map[string]string{"source": "__global__ void k() {}"})
			},
		},
		{
			// The class gate is the only pressure check a draft meets:
			// a burst's worth of shed pushes must leave the user's draft
			// budget full (the clock never moves here).
			name: "shed draft charges no draft budget",
			run: func(t *testing.T, f *overloadFixture) (int, http.Header, []byte) {
				tok := f.register("budget@test.edu", "student")
				sess := f.openSession(tok)
				push := func() (int, http.Header, []byte) {
					return f.reqFull("POST", "/api/v1/sessions/"+sess+"/draft", tok,
						map[string]string{"source": "__global__ void k() {}"})
				}
				f.setDepth(75) // pressure 0.75: at the draft threshold
				for i := 0; i < devsession.DefaultDraftBurst; i++ {
					code, headers, body := push()
					assertShedEnvelope(t, code, headers, body)
				}
				f.setDepth(0)
				for i := 0; i < devsession.DefaultDraftBurst; i++ {
					if code, _, body := push(); code != http.StatusAccepted {
						t.Fatalf("draft %d after %d shed pushes: %d %s, want 202 from a full bucket",
							i+1, devsession.DefaultDraftBurst, code, body)
					}
				}
				if code, _, body := push(); code != http.StatusTooManyRequests || !bytes.Contains(body, []byte(ErrCodeRateLimited)) {
					t.Fatalf("draft past the burst: %d %s, want 429 %s", code, body, ErrCodeRateLimited)
				}
				f.setDepth(80)
				return push()
			},
		},
		{
			name: "read saturation shed-before-queue",
			limits: map[overload.Class]overload.ClassLimit{
				overload.ClassRead: {MaxConcurrent: 1},
			},
			run: func(t *testing.T, f *overloadFixture) (int, http.Header, []byte) {
				// Hold the read gate's only slot by admitting directly, then
				// hit a read route: it must shed synchronously, never queue.
				tk, err := f.ctrl.Admit(context.Background(), overload.ClassRead)
				if err != nil {
					t.Fatal(err)
				}
				defer tk.Release()
				tok := f.register("sat@test.edu", "student")
				return f.reqFull("GET", "/api/v1/labs/vector-add/attempts", tok, nil)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newOverloadFixture(t, tc.limits)
			code, headers, body := tc.run(t, f)
			assertShedEnvelope(t, code, headers, body)
		})
	}
}

// TestPriorityClassOrdering proves the degradation order end to end over
// HTTP: as pressure rises, reads shed first, then drafts, and submissions
// keep succeeding throughout.
func TestPriorityClassOrdering(t *testing.T) {
	f := newOverloadFixture(t, nil)
	tok := f.register("order@test.edu", "student")
	src := labs.ByID("vector-add").Reference
	if code, body := f.req("POST", "/api/v1/labs/vector-add/save", tok,
		map[string]string{"source": src}); code != http.StatusOK {
		t.Fatalf("save: %d %s", code, body)
	}
	sess := f.openSession(tok)
	draftBody := map[string]string{"source": src}

	read := func() int {
		c, _, _ := f.reqFull("GET", "/api/v1/labs/vector-add/history", tok, nil)
		return c
	}
	draft := func() int {
		c, _, _ := f.reqFull("POST", "/api/v1/sessions/"+sess+"/draft", tok, draftBody)
		return c
	}
	submit := func() int {
		f.clk.Advance(time.Second) // stay ahead of the §III-C limiter
		c, _, b := f.reqFull("POST", "/api/v1/labs/vector-add/submit", tok, nil)
		if c != http.StatusOK {
			t.Logf("submit body: %s", b)
		}
		return c
	}

	// Calm: everything succeeds.
	f.setDepth(0)
	if c := read(); c != http.StatusOK {
		t.Fatalf("read at pressure 0 = %d, want 200", c)
	}
	if c := draft(); c != http.StatusAccepted {
		t.Fatalf("draft at pressure 0 = %d, want 202", c)
	}
	if c := submit(); c != http.StatusOK {
		t.Fatalf("submit at pressure 0 = %d, want 200", c)
	}

	// Pressure 0.6: reads shed, drafts and submissions still succeed.
	f.setDepth(60)
	if c := read(); c != http.StatusTooManyRequests {
		t.Fatalf("read at pressure 0.6 = %d, want 429", c)
	}
	if c := draft(); c != http.StatusAccepted {
		t.Fatalf("draft at pressure 0.6 = %d, want 202 (drafts shed at 0.75, not 0.5)", c)
	}
	if c := submit(); c != http.StatusOK {
		t.Fatalf("submit at pressure 0.6 = %d, want 200", c)
	}

	// Pressure 0.9: reads and drafts shed, submissions STILL succeed —
	// the whole point of the priority ordering.
	f.setDepth(90)
	if c := read(); c != http.StatusTooManyRequests {
		t.Fatalf("read at pressure 0.9 = %d, want 429", c)
	}
	if c := draft(); c != http.StatusTooManyRequests {
		t.Fatalf("draft at pressure 0.9 = %d, want 429", c)
	}
	if c := submit(); c != http.StatusOK {
		t.Fatalf("submit at pressure 0.9 = %d, want 200", c)
	}

	// Pressure recedes: all classes recover.
	f.setDepth(0)
	if c := read(); c != http.StatusOK {
		t.Fatalf("read after recovery = %d, want 200", c)
	}
	if c := draft(); c != http.StatusAccepted {
		t.Fatalf("draft after recovery = %d, want 202", c)
	}
}

// TestSubmissionsQueueWhileReadsShed holds the submission gate saturated
// with a blocking dispatcher and proves concurrent submissions queue (and
// eventually succeed) rather than shed, while reads shed immediately.
func TestSubmissionsQueueWhileReadsShed(t *testing.T) {
	release := make(chan struct{})
	var blocking sync.Once
	node := worker.NewNode(worker.DefaultNodeConfig("blocking-worker"))
	blockingDispatch := DispatcherFunc(func(ctx context.Context, job *worker.Job) (*worker.Result, error) {
		var wait bool
		blocking.Do(func() { wait = true })
		if wait {
			<-release // first job parks in the worker, holding its slot
		}
		return node.Execute(ctx, job), nil
	})

	f := &fixture{t: t, clk: clock.NewManual(time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC)), tokens: map[string]string{}}
	ctrl := overload.New(overload.Config{
		Clock: f.clk,
		Limits: map[overload.Class]overload.ClassLimit{
			overload.ClassSubmission: {MaxConcurrent: 1, MaxQueue: 8, QueueTimeout: 30 * time.Second},
			overload.ClassRead:       {MaxConcurrent: 64, ShedAt: 0.05},
		},
	})
	lim := sandbox.DefaultLimits()
	lim.SubmitInterval = time.Nanosecond
	f.srv = New(Config{
		DB:         db.New(),
		Dispatcher: blockingDispatch,
		Gradebook:  grader.NewCourseraBook("test"),
		Reviews:    peerreview.NewStore(0.10),
		Course:     labs.CourseHPP,
		Limits:     lim,
		Clock:      f.clk,
		Overload:   ctrl,
	})
	f.ts = newTestServer(t, f.srv)

	alice := f.register("alice@test.edu", "student")
	bob := f.register("bob@test.edu", "student")
	src := labs.ByID("vector-add").Reference
	for _, tok := range []string{alice, bob} {
		if code, body := f.req("POST", "/api/v1/labs/vector-add/save", tok,
			map[string]string{"source": src}); code != http.StatusOK {
			t.Fatalf("save: %d %s", code, body)
		}
	}

	// First submission occupies the only submission slot (blocked worker).
	firstDone := make(chan int, 1)
	go func() {
		code, _ := f.req("POST", "/api/v1/labs/vector-add/compile", alice, nil)
		firstDone <- code
	}()
	waitForCond(t, func() bool {
		return ctrl.SLOStatuses()[0].Inflight == 1
	})

	// Second submission-class request queues behind it instead of shedding.
	secondDone := make(chan int, 1)
	go func() {
		code, _ := f.req("POST", "/api/v1/labs/vector-add/compile", bob, nil)
		secondDone <- code
	}()
	// The queued waiter arms its timeout on the controller's clock; its
	// queue fill raises pressure above read's ShedAt.
	f.clk.BlockUntil(1)

	// A read under that queue pressure sheds with the overloaded code.
	var of overloadFixture
	of.fixture = f
	code, headers, body := of.reqFull("GET", "/api/v1/labs/vector-add/history", alice, nil)
	assertShedEnvelope(t, code, headers, body)

	// Unblock the worker: both submissions complete successfully.
	close(release)
	for i, ch := range []chan int{firstDone, secondDone} {
		select {
		case code := <-ch:
			if code != http.StatusOK {
				t.Fatalf("submission %d = %d, want 200", i, code)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("submission %d never completed", i)
		}
	}
}

// TestHealthzReportsOverload checks the /healthz overload component and
// the per-class SLO block.
func TestHealthzReportsOverload(t *testing.T) {
	f := newOverloadFixture(t, nil)
	code, body := f.req("GET", "/healthz", "", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz = %d %s", code, body)
	}
	var health struct {
		Components map[string]ComponentHealth `json:"components"`
		SLO        []overload.SLOStatus       `json:"slo"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if got := health.Components["overload"].Status; got != "ok" {
		t.Fatalf("overload component = %q, want ok", got)
	}
	if len(health.SLO) != 3 {
		t.Fatalf("slo block has %d classes, want 3", len(health.SLO))
	}
	for i, name := range []string{"submission", "draft", "read"} {
		if health.SLO[i].Name != name {
			t.Fatalf("slo[%d] = %q, want %q", i, health.SLO[i].Name, name)
		}
	}
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
