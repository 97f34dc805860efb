package worker

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/progcache"
	"webgpu/internal/queue"
	"webgpu/internal/trace"
)

func refJob(id, labID string, dataset int) *Job {
	l := labs.ByID(labID)
	return &Job{ID: id, LabID: labID, UserID: "u1", Source: l.Reference, DatasetID: dataset}
}

func TestNodeExecutesReference(t *testing.T) {
	n := NewNode(DefaultNodeConfig("w1"))
	res := n.Execute(context.Background(), refJob("j1", "vector-add", 0))
	if res.Error != "" || res.Rejected {
		t.Fatalf("result = %+v", res)
	}
	if !res.Correct() {
		t.Fatalf("reference incorrect: %+v", res.Outcomes[0])
	}
	if res.Image == "" || !strings.Contains(res.Image, "cuda") {
		t.Errorf("image = %q", res.Image)
	}
}

func TestNodeCompileOnly(t *testing.T) {
	n := NewNode(DefaultNodeConfig("w1"))
	res := n.Execute(context.Background(), refJob("j1", "vector-add", DatasetCompileOnly))
	if len(res.Outcomes) != 1 || !res.Outcomes[0].Compiled || res.Outcomes[0].Ran {
		t.Fatalf("outcomes = %+v", res.Outcomes)
	}
}

// TestCompileThenSubmit: a compile-only job leaves its source's entry
// holding no program, and a submission of the same source then rebuilds
// it — its compile span says cache=miss — and grades as on a fresh node.
func TestCompileThenSubmit(t *testing.T) {
	newNode := func() *Node {
		cfg := DefaultNodeConfig("w1")
		cfg.ProgCache = progcache.New(16, nil)
		return NewNode(cfg)
	}
	n := newNode()
	if res := n.Execute(context.Background(), refJob("j1", "tiled-matmul", DatasetCompileOnly)); len(res.Outcomes) != 1 || !res.Outcomes[0].Compiled {
		t.Fatalf("compile-only job: %+v", res)
	}
	if got := n.progs.Stats().Programs; got != 0 {
		t.Fatalf("the cache holds %d programs after a compile-only job, want 0", got)
	}

	tr := trace.New("tr-submit")
	got := n.Execute(trace.NewContext(context.Background(), tr), refJob("j2", "tiled-matmul", DatasetAll))
	want := newNode().Execute(context.Background(), refJob("j2", "tiled-matmul", DatasetAll))
	if g, w := comparableOutcomes(got.Outcomes), comparableOutcomes(want.Outcomes); !reflect.DeepEqual(g, w) {
		t.Errorf("submission after a compile:\n%+v\na fresh node's:\n%+v", g, w)
	}
	var compile []string
	for _, sp := range tr.Spans() {
		if sp.Name == "compile" {
			compile = append(compile, sp.Attrs["cache"])
		}
	}
	if len(compile) != 1 || compile[0] != "miss" {
		t.Errorf("the submission's compile spans say cache=%v, want one miss", compile)
	}
	if s := n.progs.Stats(); s.Programs != 1 || s.Compiles != 2 || s.Analyzes != 1 {
		t.Errorf("after the submission: %d programs, %d compiles, %d analyses; want 1, 2, 1", s.Programs, s.Compiles, s.Analyzes)
	}
}

// comparableOutcomes copies outcomes without their WallTime.
func comparableOutcomes(outs []*labs.Outcome) []labs.Outcome {
	cp := make([]labs.Outcome, len(outs))
	for i, o := range outs {
		cp[i] = *o
		cp[i].WallTime = 0
	}
	return cp
}

func TestNodeRunAll(t *testing.T) {
	n := NewNode(DefaultNodeConfig("w1"))
	res := n.Execute(context.Background(), refJob("j1", "scatter-to-gather", DatasetAll))
	want := labs.ByID("scatter-to-gather").NumDatasets
	if len(res.Outcomes) != want {
		t.Fatalf("outcomes = %d, want %d", len(res.Outcomes), want)
	}
	if !res.Correct() {
		t.Fatal("reference failed")
	}
}

func TestNodeRejectsBlacklistedSource(t *testing.T) {
	n := NewNode(DefaultNodeConfig("w1"))
	job := refJob("j1", "vector-add", 0)
	job.Source = `__global__ void vecAdd(float *a, float *b, float *c, int n) { asm("nop"); }`
	res := n.Execute(context.Background(), job)
	if !res.Rejected {
		t.Fatalf("blacklisted source not rejected: %+v", res)
	}
	if !strings.Contains(res.Error, "asm") {
		t.Errorf("error = %q", res.Error)
	}
}

// TestNodeScansRawSource: a node scans the source text as written, so
// a blacklisted word in a comment is rejected too (§III-D).
func TestNodeScansRawSource(t *testing.T) {
	n := NewNode(DefaultNodeConfig("w1"))
	job := refJob("j1", "vector-add", 0)
	job.Source = "// asm in a comment\n" + labs.ByID("vector-add").Reference
	if res := n.Execute(context.Background(), job); !res.Rejected {
		t.Fatal("raw scanner missed the commented asm (paper behaviour)")
	}
}

func TestNodeSelectsOpenCLImage(t *testing.T) {
	n := NewNode(DefaultNodeConfig("w1"))
	res := n.Execute(context.Background(), refJob("j1", "opencl-vector-add", 0))
	if !res.Correct() {
		t.Fatalf("opencl job failed: %+v", res)
	}
	if !strings.Contains(res.Image, "opencl") {
		t.Errorf("image = %q", res.Image)
	}
}

func TestNodeSelectsOpenACCImage(t *testing.T) {
	// Register a transient OpenACC lab; the node must pick the PGI image
	// and the translated kernels must pass.
	acc := &labs.Lab{
		ID:          "test-openacc-saxpy",
		Number:      900,
		Name:        "OpenACC SAXPY",
		Summary:     "OpenACC",
		Description: "# OpenACC SAXPY\n\npragma-annotated loop.",
		Dialect:     minicudaOpenACC(),
		Skeleton: `void saxpy(float *x, float *y, int n) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    y[i] = y[i];
  }
}`,
		Reference: `void saxpy(float *x, float *y, int n) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    y[i] = 2.0f * x[i] + y[i];
  }
}`,
		Courses:     []labs.Course{labs.CourseHPP},
		NumDatasets: 1,
		Rubric:      labs.Rubric{CompilePoints: 10, DatasetPoints: 40},
		Generate: func(id int) (*wbDataset, error) {
			n := 64
			x := make([]float32, n)
			y := make([]float32, n)
			want := make([]float32, n)
			for i := range x {
				x[i] = float32(i)
				y[i] = 1
				want[i] = 2*x[i] + 1
			}
			return &wbDataset{
				ID:   id,
				Name: "saxpy",
				Inputs: []wbFile{
					{Name: "x.raw", Data: wbVectorBytes(x)},
					{Name: "y.raw", Data: wbVectorBytes(y)},
				},
				Expected: wbFile{Name: "out.raw", Data: wbVectorBytes(want)},
			}, nil
		},
		Harness: accSaxpyHarness,
	}
	if err := labs.Register(acc); err != nil {
		t.Fatal(err)
	}
	defer labs.Unregister(acc.ID)

	n := NewNode(DefaultNodeConfig("w-acc"))
	res := n.Execute(context.Background(), &Job{ID: "j", LabID: acc.ID, Source: acc.Reference, DatasetID: 0})
	if !res.Correct() {
		t.Fatalf("openacc job failed: error=%q outcomes=%+v", res.Error, res.Outcomes)
	}
	if !strings.Contains(res.Image, "pgi-openacc") {
		t.Errorf("image = %q, want the PGI OpenACC image", res.Image)
	}
}

func TestNodeMultiGPUJob(t *testing.T) {
	cfg := DefaultNodeConfig("wbig")
	cfg.GPUs = 2
	n := NewNode(cfg)
	if !n.Tags[labs.ReqMultiGPU] || !n.Tags[labs.ReqMPI] {
		t.Fatalf("tags = %v", n.Tags)
	}
	res := n.Execute(context.Background(), refJob("j1", "mpi-stencil", 0))
	if !res.Correct() {
		t.Fatalf("mpi job failed: error=%q outcome=%+v", res.Error, res.Outcomes)
	}
	if !strings.Contains(res.Image, "mpi") {
		t.Errorf("image = %q", res.Image)
	}
}

func TestNodeCanServe(t *testing.T) {
	small := NewNode(DefaultNodeConfig("w1"))
	if small.CanServe(refJob("j", "mpi-stencil", 0)) {
		t.Error("1-GPU node claims the multi-GPU job")
	}
	if !small.CanServe(refJob("j", "vector-add", 0)) {
		t.Error("node refuses a plain job")
	}
	cfg := DefaultNodeConfig("w2")
	cfg.GPUs = 2
	big := NewNode(cfg)
	if !big.CanServe(refJob("j", "mpi-stencil", 0)) {
		t.Error("2-GPU MPI node refuses the MPI job")
	}
}

func TestNodeUnknownLab(t *testing.T) {
	n := NewNode(DefaultNodeConfig("w1"))
	res := n.Execute(context.Background(), &Job{ID: "j", LabID: "nope", Source: "x"})
	if res.Error == "" {
		t.Fatal("unknown lab accepted")
	}
}

func TestContainerPoolRecycles(t *testing.T) {
	n := NewNode(DefaultNodeConfig("w1"))
	for i := 0; i < 5; i++ {
		res := n.Execute(context.Background(), refJob("j", "vector-add", 0))
		if !res.Correct() {
			t.Fatalf("run %d failed", i)
		}
	}
	created, destroyed, _ := n.Pool().Stats()
	if destroyed != 5 {
		t.Errorf("destroyed = %d, want 5 (container per job)", destroyed)
	}
	if created < destroyed {
		t.Errorf("created = %d < destroyed = %d: pool not replenished", created, destroyed)
	}
	if len(n.pool.free["webgpu/cuda:7.0"]) == 0 {
		t.Error("warm pool empty after recycling")
	}
}

func TestPoolColdStart(t *testing.T) {
	p := NewPool(DefaultImages(), 1, 1)
	a, _ := p.Acquire("webgpu/cuda:7.0")
	b, _ := p.Acquire("webgpu/cuda:7.0") // pool empty: cold start
	_, _, cold := p.Stats()
	if cold != 1 {
		t.Errorf("cold starts = %d", cold)
	}
	p.Release(a)
	p.Release(b)
	p.Release(b) // double release safe
	if _, err := p.Acquire("missing:img"); !errors.Is(err, ErrNoImage) {
		t.Errorf("missing image = %v", err)
	}
}

func TestPoolImageSelection(t *testing.T) {
	p := NewPool(DefaultImages(), 1, 1)
	img, err := p.SelectImage([]string{"cuda"})
	if err != nil || img != "webgpu/cuda:7.0" {
		t.Errorf("cuda image = %q, %v (want the smallest satisfying image)", img, err)
	}
	img, err = p.SelectImage([]string{"cuda", "mpi"})
	if err != nil || img != "webgpu/cuda-mpi:7.0" {
		t.Errorf("mpi image = %q, %v", img, err)
	}
	if _, err := p.SelectImage([]string{"fortran"}); !errors.Is(err, ErrNoImage) {
		t.Errorf("fortran = %v", err)
	}
}

// ---- v2 poll model ------------------------------------------------------------

func TestDriverProcessesJobs(t *testing.T) {
	b := queue.NewBroker()
	d := NewDriver(NewNode(DefaultNodeConfig("w1")), b, DefaultVisibility)
	d.Start()
	defer d.Stop()

	for i := 0; i < 3; i++ {
		if _, err := b.Publish(TopicJobs, EncodeJob(refJob("j", "vector-add", 0))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.Stats().Acked < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := d.JobsDone(); got != 3 {
		t.Fatalf("jobs done = %d", got)
	}
	// Results landed on the results topic.
	if depth := b.Depth(TopicResults); depth != 3 {
		t.Fatalf("results depth = %d", depth)
	}
	del, ok, _ := b.Poll(TopicResults, "web", map[string]bool{}, time.Minute)
	if !ok {
		t.Fatal("no result")
	}
	res, err := DecodeResult(del.Msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct() || res.WorkerID != "w1" {
		t.Errorf("result = %+v", res)
	}
}

func TestDriverSkipsJobsItCannotServe(t *testing.T) {
	b := queue.NewBroker()
	// Single-GPU worker; the MPI job is tagged and must not be taken.
	d := NewDriver(NewNode(DefaultNodeConfig("w1")), b, DefaultVisibility)
	d.Start()
	defer d.Stop()

	l := labs.ByID("mpi-stencil")
	job := refJob("jm", "mpi-stencil", 0)
	if _, err := b.Publish(TopicJobs, EncodeJob(job), l.Requirements...); err != nil {
		t.Fatal(err)
	}
	_, _ = b.Publish(TopicJobs, EncodeJob(refJob("jp", "vector-add", 0)))

	deadline := time.Now().Add(10 * time.Second)
	for d.JobsDone() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d.JobsDone() != 1 {
		t.Fatalf("jobs done = %d", d.JobsDone())
	}
	if b.Backlog(TopicJobs) != 1 {
		t.Fatalf("mpi job should remain queued, backlog = %d", b.Backlog(TopicJobs))
	}

	// A capable worker joins and drains it.
	cfg := DefaultNodeConfig("w2")
	cfg.GPUs = 2
	d2 := NewDriver(NewNode(cfg), b, DefaultVisibility)
	d2.Start()
	defer d2.Stop()
	deadline = time.Now().Add(20 * time.Second)
	for d2.JobsDone() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d2.JobsDone() != 1 {
		t.Fatalf("capable worker did not take the mpi job")
	}
}

func TestFleetScale(t *testing.T) {
	b := queue.NewBroker()
	f := NewFleet(b, DefaultVisibility, nil)
	f.Scale(3)
	done := func() (n int64) {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, d := range f.drivers {
			n += d.JobsDone()
		}
		return n
	}
	if f.Size() != 3 {
		t.Fatalf("size = %d", f.Size())
	}
	for i := 0; i < 6; i++ {
		_, _ = b.Publish(TopicJobs, EncodeJob(refJob("j", "vector-add", 0)))
	}
	deadline := time.Now().Add(20 * time.Second)
	for done() < 6 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := done(); n != 6 {
		t.Fatalf("fleet completed %d of 6", n)
	}
	f.Scale(1)
	if f.Size() != 1 {
		t.Errorf("after scale down: %d", f.Size())
	}
	f.Stop()
	if f.Size() != 0 {
		t.Errorf("after stop: %d", f.Size())
	}
}

func TestJobRoundTrip(t *testing.T) {
	j := refJob("j9", "spmv", 2)
	j.Requirements = []string{"cuda"}
	got, err := DecodeJob(EncodeJob(j))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != j.ID || got.LabID != j.LabID || got.DatasetID != 2 || got.Source != j.Source {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if _, err := DecodeJob([]byte("not json")); err == nil {
		t.Error("garbage decoded")
	}
}

// TestOutputBudgetIsPerResult: the outcomes of one submission share
// MaxOutputBytes. With a budget of one and a half datasets' traces, the
// first trace is whole, the second is cut at what is left and marked,
// and the rest hold the marker alone.
func TestOutputBudgetIsPerResult(t *testing.T) {
	const marker = "\n[output truncated]"
	full := NewNode(DefaultNodeConfig("w1")).Execute(context.Background(), refJob("j1", "vector-add", DatasetAll))
	if len(full.Outcomes) < 3 || full.Outcomes[0].Trace == "" || len(full.Outcomes[1].Trace) < 2 {
		t.Fatalf("want ≥ 3 outcomes with traces, got %+v", full.Outcomes)
	}
	first, second := full.Outcomes[0].Trace, full.Outcomes[1].Trace
	budget := len(first) + len(second)/2
	cfg := DefaultNodeConfig("w2")
	cfg.Limits.MaxOutputBytes = budget
	res := NewNode(cfg).Execute(context.Background(), refJob("j2", "vector-add", DatasetAll))
	if len(res.Outcomes) != len(full.Outcomes) || !res.Correct() {
		t.Fatalf("clamped run: %+v", res.Outcomes)
	}
	kept := 0
	for i, o := range res.Outcomes {
		want := marker
		switch i {
		case 0:
			want = first
		case 1:
			want = second[:len(second)/2] + marker
		}
		if o.Trace != want {
			t.Errorf("dataset %d trace = %q, want %q", i, o.Trace, want)
		}
		kept += len(strings.TrimSuffix(o.Trace, marker))
	}
	if kept != budget {
		t.Errorf("the traces keep %d bytes between them, want the budget, %d", kept, budget)
	}
}
