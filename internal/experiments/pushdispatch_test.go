package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/labs"
	"webgpu/internal/worker"
)

func pushJob(id, labID string) *worker.Job {
	return &worker.Job{ID: id, LabID: labID, UserID: "u1", Source: labs.ByID(labID).Reference}
}

func TestRegistryDispatch(t *testing.T) {
	r := newPushRegistry(time.Minute)
	r.Register(worker.NewNode(worker.DefaultNodeConfig("w1")))
	r.Register(worker.NewNode(worker.DefaultNodeConfig("w2")))
	res, err := r.Dispatch(context.Background(), pushJob("j1", "vector-add"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct() {
		t.Fatalf("dispatch result: %+v", res)
	}
	if r.Size() != 2 {
		t.Errorf("size = %d", r.Size())
	}
}

func TestRegistryEvictsSilentWorkers(t *testing.T) {
	r := newPushRegistry(30 * time.Second)
	clk := clock.NewManual(time.Unix(0, 0))
	r.SetClock(clk)
	r.Register(worker.NewNode(worker.DefaultNodeConfig("w1")))
	clk.Advance(20 * time.Second)
	r.Register(worker.NewNode(worker.DefaultNodeConfig("w2"))) // w2's registration is its beat
	clk.Advance(20 * time.Second)
	alive := r.Alive()
	if len(alive) != 1 || alive[0] != "w2" {
		t.Fatalf("alive = %v", alive)
	}
	if r.Evictions() != 1 {
		t.Errorf("evictions = %d", r.Evictions())
	}
}

// Alive is reported in ID order, not in the map's iteration order, so a
// report that prints the pool is a function of the pool.
func TestRegistryAliveIsSorted(t *testing.T) {
	r := newPushRegistry(time.Minute)
	for i := 16; i >= 1; i-- {
		r.Register(worker.NewNode(worker.DefaultNodeConfig(fmt.Sprintf("w%02d", i))))
	}
	for call := 0; call < 20; call++ {
		alive := r.Alive()
		if len(alive) != 16 || !sort.StringsAreSorted(alive) {
			t.Fatalf("call %d: alive = %v, want 16 IDs in ascending order", call, alive)
		}
	}
}

func TestRegistryNoCapableWorker(t *testing.T) {
	r := newPushRegistry(time.Minute)
	r.Register(worker.NewNode(worker.DefaultNodeConfig("w1"))) // 1 GPU: not multi-gpu
	_, err := r.Dispatch(context.Background(), pushJob("j1", "mpi-stencil"))
	if !errors.Is(err, errNoWorkers) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegistryEmptyPool(t *testing.T) {
	r := newPushRegistry(time.Minute)
	if _, err := r.Dispatch(context.Background(), pushJob("j", "vector-add")); !errors.Is(err, errNoWorkers) {
		t.Fatalf("err = %v", err)
	}
}

// The give-up error wraps the root cause and says how many attempts the
// fixed budget made; D3 prints it.
func TestDispatchGivesUpWrappingLastError(t *testing.T) {
	r := newPushRegistry(time.Minute)
	_, err := r.Dispatch(context.Background(), pushJob("j1", "vector-add"))
	if !errors.Is(err, errNoWorkers) {
		t.Fatalf("err = %v, want wrapped errNoWorkers", err)
	}
	want := "worker: dispatch gave up after 4 attempts: worker: no live worker can serve this job"
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}
