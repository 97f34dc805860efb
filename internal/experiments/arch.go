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

// pipelineRun drives nStudents × attempts full vector-add attempts through
// a platform over HTTP and reports throughput.
func pipelineRun(p *platform.Platform, nStudents, attemptsEach int) (time.Duration, int, error) {
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	src := labs.ByID("vector-add").Reference

	start := time.Now()
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
			if _, err := c.do("POST", "/api/v1/labs/vector-add/save",
				map[string]string{"source": src}, nil); err != nil {
				errs[s] = err
				return
			}
			for a := 0; a < attemptsEach; a++ {
				var att webserver.AttemptRec
				if _, err := c.do("POST", "/api/v1/labs/vector-add/attempt?dataset=0", nil, &att); err != nil {
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
	elapsed := time.Since(start)
	total := 0
	for s := range errs {
		if errs[s] != nil {
			return elapsed, 0, errs[s]
		}
		total += correct[s]
	}
	return elapsed, total, nil
}

// Figure2 exercises the v1 architecture: web server ¬, database ­, and a
// push-dispatched worker pool ®, measuring the end-to-end submission flow.
func Figure2() string {
	var sb strings.Builder
	sb.WriteString("== Figure 2: v1 architecture (web server -> DB -> pushed workers) ==\n\n")
	p := platform.New(platform.Options{Arch: platform.V1, Workers: 4})
	defer p.Close()

	const students, attempts = 8, 2
	elapsed, correct, err := pipelineRun(p, students, attempts)
	if err != nil {
		return sb.String() + "ERROR: " + err.Error() + "\n"
	}
	jobs := students * attempts
	fmt.Fprintf(&sb, "workers (push-dispatched):  %d\n", p.Workers())
	fmt.Fprintf(&sb, "students x attempts:        %d x %d = %d jobs\n", students, attempts, jobs)
	fmt.Fprintf(&sb, "correct results relayed:    %d/%d\n", correct, jobs)
	fmt.Fprintf(&sb, "end-to-end wall time:       %v (%.1f jobs/s)\n",
		elapsed.Round(time.Millisecond), float64(jobs)/elapsed.Seconds())
	fmt.Fprintf(&sb, "health-checked worker pool: %v alive, %d evictions\n",
		p.Registry.Alive(), p.Registry.Evictions())
	sb.WriteString("\nflow per the paper: user code -> web server -> worker (compile+run in\n" +
		"sandbox) -> results -> web server -> user; all code/attempt records in the DB.\n")
	return sb.String()
}

// Figure3 renders the Code view of a lab (editor, compile controls,
// dataset drop-down) and reports its elements.
func Figure3() string {
	var sb strings.Builder
	sb.WriteString("== Figure 3: the Code view (vector-add) ==\n\n")
	p := platform.New(platform.Options{Arch: platform.V1, Workers: 1})
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
	p := platform.New(platform.Options{Arch: platform.V1, Workers: 1})
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
	fmt.Fprintf(&sb, "%-5s %-22s %s\n", "rev", "saved at", "code (first line)")
	for _, h := range history {
		first := strings.SplitN(h.Source, "\n", 2)[0]
		if len(first) > 60 {
			first = first[:60]
		}
		fmt.Fprintf(&sb, "%-5d %-22s %s\n", h.Rev, h.SavedAt.Format(time.RFC3339), first)
	}
	fmt.Fprintf(&sb, "\n%d revisions retained; students can inspect and compare any of them.\n",
		len(history))
	return sb.String()
}

// Figure5 builds the Roster view: several students with different
// outcomes, as the instructor sees them.
func Figure5() string {
	var sb strings.Builder
	sb.WriteString("== Figure 5: the Roster view (instructor tools) ==\n\n")
	p := platform.New(platform.Options{Arch: platform.V1, Workers: 2})
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
	fmt.Fprintf(&sb, "%-24s %-9s %-12s %-9s %-9s %-6s %s\n",
		"student", "attempts", "submissions", "program", "questions", "total", "last submitted")
	for _, r := range roster {
		fmt.Fprintf(&sb, "%-24s %-9d %-12d %-9d %-9d %d/%-3d %s\n",
			r.Email, r.Attempts, r.Submissions, r.ProgramGrade, r.QuestionGrade,
			r.TotalGrade, r.MaxGrade, r.LastSubmitted)
	}
	return sb.String()
}

// Figure6 exercises the v2 architecture: broker-queued polling workers
// with tag routing, mirrored broker, and replicated DB.
func Figure6() string {
	var sb strings.Builder
	sb.WriteString("== Figure 6: v2 architecture (broker + polling workers) ==\n\n")
	p := platform.New(platform.Options{Arch: platform.V2, Workers: 4, GPUsPerWorker: 2,
		Course: labs.CourseECE598})
	defer p.Close()

	const students, attempts = 8, 2
	elapsed, correct, err := pipelineRunLab(p, "scatter-to-gather", students, attempts)
	if err != nil {
		return sb.String() + "ERROR: " + err.Error() + "\n"
	}
	jobs := students * attempts
	fmt.Fprintf(&sb, "fleet size (polling drivers): %d\n", p.Workers())
	fmt.Fprintf(&sb, "jobs completed:               %d/%d correct\n", correct, jobs)
	fmt.Fprintf(&sb, "end-to-end wall time:         %v (%.1f jobs/s)\n",
		elapsed.Round(time.Millisecond), float64(jobs)/elapsed.Seconds())
	st := p.Broker.Stats()
	fmt.Fprintf(&sb, "broker: published=%d delivered=%d acked=%d redelivered=%d dead=%d\n",
		st.Published, st.Delivered, st.Acked, st.Redelivered, st.DeadLetters)
	fmt.Fprintf(&sb, "standby broker mirrored publishes: %d\n", p.StandbyBroker.Stats().Published)
	fmt.Fprintf(&sb, "replica lag after run: %d commits\n", p.Replica.Lag())
	sb.WriteString("\ntag routing: an MPI lab is left for a capable worker —\n")
	sb.WriteString(tagRoutingDemo())
	return sb.String()
}

// pipelineRunLab is pipelineRun for an arbitrary lab.
func pipelineRunLab(p *platform.Platform, labID string, nStudents, attemptsEach int) (time.Duration, int, error) {
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	src := labs.ByID(labID).Reference

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, nStudents)
	correct := make([]int, nStudents)
	for s := 0; s < nStudents; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := newAPIClient(ts.URL)
			if err := c.register(fmt.Sprintf("v2student%03d@example.edu", s), "student"); err != nil {
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
	elapsed := time.Since(start)
	total := 0
	for s := range errs {
		if errs[s] != nil {
			return elapsed, 0, errs[s]
		}
		total += correct[s]
	}
	return elapsed, total, nil
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

// Figure7 measures the v2 worker's container pool: per-job container
// recycling (warm) vs creating containers on demand (cold), the §VI-B
// design and the D8 ablation.
func Figure7() string {
	var sb strings.Builder
	sb.WriteString("== Figure 7: v2 worker container pool ==\n\n")

	job := &worker.Job{ID: "j", LabID: "vector-add",
		Source: labs.ByID("vector-add").Reference, DatasetID: 0}

	// Warm pool (the paper's design).
	cfgWarm := worker.DefaultNodeConfig("warm")
	cfgWarm.PerImage = 2
	warm := worker.NewNode(cfgWarm)
	const jobs = 20
	startWarm := time.Now()
	for i := 0; i < jobs; i++ {
		if res := warm.Execute(context.Background(), job); !res.Correct() {
			return "ERROR: warm job failed: " + res.Error
		}
	}
	warmTime := time.Since(startWarm)
	wc, wd, wcold := warm.Pool().Stats()

	// Cold: no warm containers — every acquisition is on demand.
	cfgCold := worker.DefaultNodeConfig("cold")
	cfgCold.PerImage = -1
	cold := worker.NewNode(cfgCold)
	startCold := time.Now()
	for i := 0; i < jobs; i++ {
		if res := cold.Execute(context.Background(), job); !res.Correct() {
			return "ERROR: cold job failed: " + res.Error
		}
	}
	coldTime := time.Since(startCold)
	cc, cd, ccold := cold.Pool().Stats()

	fmt.Fprintf(&sb, "%d jobs, container-per-job with teardown after every job (§VI-B)\n\n", jobs)
	fmt.Fprintf(&sb, "%-22s %-10s %-10s %-11s %s\n", "configuration", "created", "destroyed", "cold-starts", "wall time")
	fmt.Fprintf(&sb, "%-22s %-10d %-10d %-11d %v\n", "warm pool (paper)", wc, wd, wcold, warmTime.Round(time.Millisecond))
	fmt.Fprintf(&sb, "%-22s %-10d %-10d %-11d %v\n", "no pool (cold start)", cc, cd, ccold, coldTime.Round(time.Millisecond))
	sb.WriteString("\nevery job ran in a fresh container (destroyed == jobs); the warm pool\n" +
		"replenishes asynchronously so acquisitions never wait on container creation\n" +
		"(cold-starts = 0), matching the cited result that Docker adds no overhead\n" +
		"to GPU job execution.\n")
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
