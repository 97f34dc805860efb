package worker

import (
	"context"
	"testing"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// registerGatedLab installs a lab whose harness blocks on a channel, so a
// test can cancel the job while dataset 0 is mid-flight and observe which
// datasets never launch.
func registerGatedLab(t *testing.T, id string, datasets int, started chan struct{}, proceed chan struct{}) *labs.Lab {
	t.Helper()
	l := &labs.Lab{
		ID:          id,
		Number:      900,
		Name:        "Cancellation probe",
		Description: "test-only lab with a gated harness",
		Dialect:     minicuda.DialectCUDA,
		Skeleton: `__global__ void noop(int n) {
}
`,
		Reference: `__global__ void noop(int n) {
}
`,
		NumDatasets: datasets,
		Generate: func(dsID int) (*wb.Dataset, error) {
			return &wb.Dataset{ID: dsID, Name: "gate"}, nil
		},
		Harness: func(rc *labs.RunContext) wb.CheckResult {
			started <- struct{}{}
			<-proceed
			return wb.CheckResult{Correct: true}
		},
	}
	if err := labs.Register(l); err != nil {
		t.Fatalf("register gated lab: %v", err)
	}
	t.Cleanup(func() { labs.Unregister(id) })
	return l
}

// TestCancelMidRunAllStopsDatasets cancels a grading job while its first
// dataset is executing: the remaining datasets must never launch, the
// result must be marked Canceled.
func TestCancelMidRunAllStopsDatasets(t *testing.T) {
	started := make(chan struct{}, 8)
	proceed := make(chan struct{})
	l := registerGatedLab(t, "cancel-probe", 4, started, proceed)

	// One GPU per container: RunAllCompiled takes the serial path, so
	// datasets launch strictly in order.
	cfg := DefaultNodeConfig("cancel-worker")
	cfg.GPUs = 1
	n := NewNode(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Result, 1)
	go func() {
		done <- n.Execute(ctx, &Job{
			ID: "j-cancel", LabID: l.ID, Source: l.Reference, DatasetID: DatasetAll,
		})
	}()

	// Dataset 0's harness is now running; cancel the job, then let the
	// in-flight harness finish.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("dataset 0 never started")
	}
	cancel()
	close(proceed)

	var res *Result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("execute did not return after cancellation")
	}
	if !res.Canceled {
		t.Fatalf("result = %+v, want Canceled", res)
	}
	if got := len(res.Outcomes); got != 4 {
		t.Fatalf("outcomes = %d, want one per dataset", got)
	}
	// Only dataset 0 reached the harness.
	if n := len(started); n != 0 {
		t.Errorf("%d extra datasets launched after cancellation", n+1)
	}
	for i, o := range res.Outcomes[1:] {
		if !o.Canceled || o.Ran {
			t.Errorf("outcome %d = %+v, want Canceled and not Ran", i+1, o)
		}
	}
}

// TestCancelBeforeAdmission cancels a job that is still queued at the
// node's admission semaphore: it must return without executing.
func TestCancelBeforeAdmission(t *testing.T) {
	started := make(chan struct{}, 8)
	proceed := make(chan struct{})
	l := registerGatedLab(t, "cancel-admission-probe", 1, started, proceed)

	cfg := DefaultNodeConfig("adm-worker")
	cfg.Images = DefaultImages()[:1] // one image, one warm container: admission is 1
	cfg.PerImage = 1
	n := NewNode(cfg)

	// Occupy the single admission slot.
	first := make(chan *Result, 1)
	go func() {
		first <- n.Execute(context.Background(), &Job{
			ID: "j-hold", LabID: l.ID, Source: l.Reference, DatasetID: 0,
		})
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("holder job never started")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := n.Execute(ctx, &Job{ID: "j-queued", LabID: l.ID, Source: l.Reference, DatasetID: 0})
	if !res.Canceled || res.Error == "" {
		t.Fatalf("queued result = %+v, want Canceled with an error", res)
	}

	close(proceed)
	if res := <-first; res.Canceled || len(res.Outcomes) != 1 || !res.Outcomes[0].Correct {
		t.Fatalf("holder result = %+v", res)
	}
}
