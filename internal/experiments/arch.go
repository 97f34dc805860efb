package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/db"
	"webgpu/internal/labs"
	"webgpu/internal/platform"
	"webgpu/internal/queue"
	"webgpu/internal/webserver"
	"webgpu/internal/worker"
)

// apiClient is a tiny JSON client over an httptest server.
type apiClient struct {
	base  string
	token string
	http  *http.Client
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, http: &http.Client{Timeout: 2 * time.Minute}}
}

func (c *apiClient) do(method, path string, body, out interface{}) (int, error) {
	var rd bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = *bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, &rd)
	if err != nil {
		return 0, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", buf.String(), err)
		}
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, buf.String())
	}
	return resp.StatusCode, nil
}

func (c *apiClient) register(email, role string) error {
	var resp struct {
		Token string `json:"token"`
	}
	_, err := c.do("POST", "/api/v1/register",
		map[string]string{"name": email, "email": email, "role": role}, &resp)
	c.token = resp.Token
	return err
}

// pipelineRun drives nStudents × attemptsEach concurrent attempts of a
// lab's reference solution through a web tier over HTTP and counts the
// correct results relayed back.
func pipelineRun(h http.Handler, labID string, nStudents, attemptsEach int) (int, error) {
	ts := httptest.NewServer(h)
	defer ts.Close()
	src := labs.ByID(labID).Reference

	var wg sync.WaitGroup
	errs := make([]error, nStudents)
	correct := make([]int, nStudents)
	for s := 0; s < nStudents; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := newAPIClient(ts.URL)
			if err := c.register(fmt.Sprintf("student%03d@example.edu", s), "student"); err != nil {
				errs[s] = err
				return
			}
			if _, err := c.do("POST", "/api/v1/labs/"+labID+"/save",
				map[string]string{"source": src}, nil); err != nil {
				errs[s] = err
				return
			}
			for a := 0; a < attemptsEach; a++ {
				var att webserver.AttemptRec
				if _, err := c.do("POST", "/api/v1/labs/"+labID+"/attempt?dataset=0", nil, &att); err != nil {
					errs[s] = err
					return
				}
				if att.Outcome != nil && att.Outcome.Correct {
					correct[s]++
				}
			}
		}(s)
	}
	wg.Wait()
	total := 0
	for s := range errs {
		if errs[s] != nil {
			return 0, errs[s]
		}
		total += correct[s]
	}
	return total, nil
}

// Figure2 exercises the v1 architecture: web server ¬, database ­, and a
// push-dispatched worker pool ®, through the end-to-end submission flow.
// The pool's clock stands still, so no worker misses a health check.
func Figure2() string {
	var sb strings.Builder
	sb.WriteString("== Figure 2: v1 architecture (web server -> DB -> pushed workers) ==\n\n")
	pool := newPushRegistry(30 * time.Second)
	pool.SetClock(clock.NewManual(time.Unix(0, 0)))
	for i := 1; i <= 4; i++ {
		cfg := worker.DefaultNodeConfig(fmt.Sprintf("worker-%03d", i))
		cfg.GPUs = 2
		pool.Register(worker.NewNode(cfg))
	}
	store := db.New()
	defer store.Close()
	srv := webserver.New(webserver.Config{DB: store, Dispatcher: webserver.DispatcherFunc(pool.Dispatch)})

	const students, attempts = 8, 2
	correct, err := pipelineRun(srv.Handler(), "vector-add", students, attempts)
	if err != nil {
		return sb.String() + "ERROR: " + err.Error() + "\n"
	}
	jobs := students * attempts
	fmt.Fprintf(&sb, "workers (push-dispatched):  %d\n", pool.Size())
	fmt.Fprintf(&sb, "students x attempts:        %d x %d = %d jobs\n", students, attempts, jobs)
	fmt.Fprintf(&sb, "correct results relayed:    %d/%d\n", correct, jobs)
	fmt.Fprintf(&sb, "health-checked worker pool: %v alive, %d evictions\n",
		pool.Alive(), pool.Evictions())
	sb.WriteString("\nflow per the paper: user code -> web server -> worker (compile+run in\n" +
		"sandbox) -> results -> web server -> user; all code/attempt records in the DB.\n")
	return sb.String()
}

// Figure3 renders the Code view of a lab (editor, compile controls,
// dataset drop-down) and reports its elements.
func Figure3() string {
	var sb strings.Builder
	sb.WriteString("== Figure 3: the Code view (vector-add) ==\n\n")
	p := platform.New(platform.Options{Workers: 1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	c := newAPIClient(ts.URL)
	if err := c.register("viewer@example.edu", "student"); err != nil {
		return err.Error()
	}
	req, _ := http.NewRequest("GET", ts.URL+"/labs/vector-add/view", nil)
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	page := buf.String()

	checks := []struct{ name, marker string }{
		{"navigation tabs (Description/Code/Questions/Attempts/History)", "Attempts | History"},
		{"code editor with skeleton", "<textarea"},
		{"skeleton kernel stub", "vecAdd"},
		{"compile control", `id="compile"`},
		{"dataset drop-down", `id="dataset"`},
		{"run control", `id="run"`},
		{"submit control", `id="submit"`},
	}
	for _, ch := range checks {
		present := "MISSING"
		if strings.Contains(page, ch.marker) {
			present = "present"
		}
		fmt.Fprintf(&sb, "  %-58s %s\n", ch.name, present)
	}
	fmt.Fprintf(&sb, "\nrendered page: %d bytes of HTML\n", len(page))
	return sb.String()
}

// Figure4 demonstrates the History view: every save is a retained
// revision.
func Figure4() string {
	var sb strings.Builder
	sb.WriteString("== Figure 4: the History view ==\n\n")
	p := platform.New(platform.Options{Workers: 1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	c := newAPIClient(ts.URL)
	if err := c.register("hist@example.edu", "student"); err != nil {
		return err.Error()
	}
	snippets := []string{
		"// attempt 1: empty kernel",
		"// attempt 2: index without bounds check\nint i = blockIdx.x * blockDim.x + threadIdx.x;",
		labs.ByID("vector-add").Reference,
	}
	for _, src := range snippets {
		if _, err := c.do("POST", "/api/v1/labs/vector-add/save",
			map[string]string{"source": src}, nil); err != nil {
			return err.Error()
		}
	}
	var historyPage struct {
		Items []webserver.CodeRec `json:"items"`
	}
	if _, err := c.do("GET", "/api/v1/labs/vector-add/history", nil, &historyPage); err != nil {
		return err.Error()
	}
	history := historyPage.Items
	fmt.Fprintf(&sb, "%-5s %s\n", "rev", "code (first line)")
	stamped := true // every revision has a save time, none earlier than the one before
	var prev time.Time
	for _, h := range history {
		first := strings.SplitN(h.Source, "\n", 2)[0]
		if len(first) > 60 {
			first = first[:60]
		}
		fmt.Fprintf(&sb, "%-5d %s\n", h.Rev, first)
		stamped = stamped && !h.SavedAt.IsZero() && !h.SavedAt.Before(prev)
		prev = h.SavedAt
	}
	fmt.Fprintf(&sb, "\n%d revisions retained; students can inspect and compare any of them.\n",
		len(history))
	fmt.Fprintf(&sb, "save timestamps present and non-decreasing: %v\n", stamped)
	return sb.String()
}

// Figure5 builds the Roster view: several students with different
// outcomes, as the instructor sees them.
func Figure5() string {
	var sb strings.Builder
	sb.WriteString("== Figure 5: the Roster view (instructor tools) ==\n\n")
	p := platform.New(platform.Options{Workers: 2})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	good := labs.ByID("vector-add").Reference
	wrong := strings.Replace(good, "in1[i] + in2[i]", "in1[i] - in2[i]", 1)
	students := []struct {
		email string
		src   string
		qs    int
	}{
		{"ada@example.edu", good, 2},
		{"bob@example.edu", wrong, 1},
		{"cyd@example.edu", good, 0},
	}
	for _, s := range students {
		c := newAPIClient(ts.URL)
		if err := c.register(s.email, "student"); err != nil {
			return err.Error()
		}
		if _, err := c.do("POST", "/api/v1/labs/vector-add/save",
			map[string]string{"source": s.src}, nil); err != nil {
			return err.Error()
		}
		answers := make([]string, s.qs)
		for i := range answers {
			answers[i] = "an answer"
		}
		_, _ = c.do("POST", "/api/v1/labs/vector-add/questions",
			map[string][]string{"answers": answers}, nil)
		if _, err := c.do("POST", "/api/v1/labs/vector-add/submit", nil, nil); err != nil {
			return err.Error()
		}
	}
	prof := newAPIClient(ts.URL)
	if err := prof.register("hwu@example.edu", "instructor"); err != nil {
		return err.Error()
	}
	var roster []webserver.RosterRow
	if _, err := prof.do("GET", "/api/v1/instructor/roster/vector-add", nil, &roster); err != nil {
		return err.Error()
	}
	fmt.Fprintf(&sb, "%-24s %-9s %-12s %-9s %-9s %-7s %s\n",
		"student", "attempts", "submissions", "program", "questions", "total", "last submitted")
	for _, r := range roster {
		stamp := "missing"
		if r.LastSubmitted != "" {
			stamp = "present"
		}
		fmt.Fprintf(&sb, "%-24s %-9d %-12d %-9d %-9d %-7s %s\n",
			r.Email, r.Attempts, r.Submissions, r.ProgramGrade, r.QuestionGrade,
			fmt.Sprintf("%d/%d", r.TotalGrade, r.MaxGrade), stamp)
	}
	return sb.String()
}

// Figure6 exercises the v2 architecture: broker-queued polling workers
// with tag routing.
func Figure6() string {
	var sb strings.Builder
	sb.WriteString("== Figure 6: v2 architecture (broker + polling workers) ==\n\n")
	p := platform.New(platform.Options{Workers: 4, GPUsPerWorker: 2,
		Course: labs.CourseECE598})
	defer p.Close()

	const students, attempts = 8, 2
	correct, err := pipelineRun(p.Handler(), "scatter-to-gather", students, attempts)
	if err != nil {
		return sb.String() + "ERROR: " + err.Error() + "\n"
	}
	jobs := students * attempts
	fmt.Fprintf(&sb, "fleet size (polling drivers): %d\n", p.Workers())
	fmt.Fprintf(&sb, "jobs completed:               %d/%d correct\n", correct, jobs)
	// A student's answer can return before the driver acks its job or the
	// router acks the result: read the counters once that tail has drained.
	waitFor(func() bool {
		st := p.Broker.Stats()
		return st.Inflight == 0 && st.Acked == st.Published
	}, 20*time.Second)
	st := p.Broker.Stats()
	fmt.Fprintf(&sb, "broker: published=%d delivered=%d acked=%d redelivered=%d dead=%d\n",
		st.Published, st.Delivered, st.Acked, st.Redelivered, st.DeadLetters)
	sb.WriteString("\ntag routing: an MPI lab is left for a capable worker —\n")
	sb.WriteString(tagRoutingDemo())
	return sb.String()
}

// tagRoutingDemo publishes a plain job and an MPI-tagged job to a broker
// with one plain worker, then adds a capable worker.
func tagRoutingDemo() string {
	var sb strings.Builder
	b := queue.NewBroker()
	cs := worker.NewConfigServer(worker.DefaultConfig())
	plain := worker.NewDriver(worker.NewNode(worker.DefaultNodeConfig("plain-worker")), b, cs)
	plain.Start()
	defer plain.Stop()

	mpiLab := labs.ByID("mpi-stencil")
	_, _ = b.Publish(worker.TopicJobs, worker.EncodeJob(&worker.Job{
		ID: "job-mpi", LabID: mpiLab.ID, Source: mpiLab.Reference, DatasetID: 0,
	}), mpiLab.Requirements...)
	_, _ = b.Publish(worker.TopicJobs, worker.EncodeJob(&worker.Job{
		ID: "job-plain", LabID: "vector-add", Source: labs.ByID("vector-add").Reference, DatasetID: 0,
	}))

	waitFor(func() bool { return plain.JobsDone() >= 1 }, 20*time.Second)
	fmt.Fprintf(&sb, "  plain 1-GPU worker completed %d job(s); MPI job still queued: %d\n",
		plain.JobsDone(), b.Backlog(worker.TopicJobs))

	cfg := worker.DefaultNodeConfig("mpi-worker")
	cfg.GPUs = 2
	capable := worker.NewDriver(worker.NewNode(cfg), b, cs)
	capable.Start()
	defer capable.Stop()
	waitFor(func() bool { return capable.JobsDone() >= 1 }, 30*time.Second)
	fmt.Fprintf(&sb, "  2-GPU MPI worker joined and completed %d job(s); backlog now %d\n",
		capable.JobsDone(), b.Backlog(worker.TopicJobs))
	return sb.String()
}

func waitFor(cond func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// Figure7 counts the v2 worker's container churn: per-job container
// recycling from a warm pool vs creating containers on demand (cold), the
// §VI-B design and the D8 ablation.
func Figure7() string {
	var sb strings.Builder
	sb.WriteString("== Figure 7: v2 worker container pool ==\n\n")

	job := &worker.Job{ID: "j", LabID: "vector-add",
		Source: labs.ByID("vector-add").Reference, DatasetID: 0}
	const jobs = 20
	run := func(id string, perImage int) (*worker.Node, error) {
		cfg := worker.DefaultNodeConfig(id)
		cfg.PerImage = perImage
		n := worker.NewNode(cfg)
		for i := 0; i < jobs; i++ {
			if res := n.Execute(context.Background(), job); !res.Correct() {
				return nil, fmt.Errorf("%s job failed: %s", id, res.Error)
			}
		}
		return n, nil
	}
	// Warm pool (the paper's design), then no warm containers: every
	// acquisition is on demand.
	warm, err := run("warm", 2)
	if err != nil {
		return "ERROR: " + err.Error()
	}
	cold, err := run("cold", -1)
	if err != nil {
		return "ERROR: " + err.Error()
	}
	wc, wd, wcold := warm.Pool().Stats()
	cc, cd, ccold := cold.Pool().Stats()

	fmt.Fprintf(&sb, "%d jobs, container-per-job with teardown after every job (§VI-B)\n\n", jobs)
	fmt.Fprintf(&sb, "%-22s %-10s %-10s %s\n", "configuration", "created", "destroyed", "cold-starts")
	fmt.Fprintf(&sb, "%-22s %-10d %-10d %d\n", "warm pool (paper)", wc, wd, wcold)
	fmt.Fprintf(&sb, "%-22s %-10d %-10d %d\n", "no pool (cold start)", cc, cd, ccold)
	sb.WriteString("\nevery job ran in a fresh container (destroyed == jobs); releasing a\n" +
		"container destroys it and creates its replacement before the release\n" +
		"returns, so with a warm pool no acquisition waits on container creation\n" +
		"(cold-starts = 0).\n")
	fmt.Fprintf(&sb, "\nGPU device state isolated between jobs: %d allocations leaked\n",
		leakCheck(warm))
	return sb.String()
}

func leakCheck(n *worker.Node) int {
	total := 0
	ctr, err := n.Pool().Acquire("webgpu/cuda:7.0")
	if err == nil {
		for _, d := range ctr.Devices {
			total += d.AllocCount()
		}
		n.Pool().Release(ctr)
	}
	return total
}
