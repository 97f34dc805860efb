package worker

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/metrics"
	"webgpu/internal/progcache"
	"webgpu/internal/trace"
)

// tracedRun executes a graded vector-add job on a fresh node with its own
// registry and cache, under a trace, and returns both instruments' records.
func tracedRun(t *testing.T) (*metrics.Registry, []trace.Span) {
	t.Helper()
	cfg := DefaultNodeConfig("w1")
	cfg.Metrics = metrics.NewRegistry()
	cfg.ProgCache = progcache.New(progcache.DefaultCapacity, nil)
	n := NewNode(cfg)
	tr := trace.New("tr-stage")
	res := n.Execute(trace.NewContext(context.Background(), tr), refJob("j1", "vector-add", DatasetAll))
	if !res.Correct() {
		t.Fatalf("reference failed: %+v", res)
	}
	if len(res.Spans) != 0 {
		t.Errorf("the node shipped %d spans of a trace its caller owns", len(res.Spans))
	}
	return cfg.Metrics, tr.Spans()
}

// TestStageSamplesAreTheirSpans: each stage histogram of a traced job holds
// exactly the duration its span records, because one End gave both.
func TestStageSamplesAreTheirSpans(t *testing.T) {
	reg, spans := tracedRun(t)
	byName := map[string]trace.Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	for _, stage := range []string{"admission", "compile", "kernelcheck"} {
		h := reg.Hist("stage_" + stage + "_ms")
		sp, ok := byName[stage]
		if h == nil || h.Count() != 1 || !ok {
			t.Fatalf("%s: histogram %v, span present %v; want one of each", stage, h, ok)
		}
		if want := float64(sp.Dur) / float64(time.Millisecond); h.Sum() != want {
			t.Errorf("stage_%s_ms = %v, its span says %v", stage, h.Sum(), want)
		}
	}
	if h := reg.Hist("stage_exec_ms"); h == nil || h.Count() != 1 {
		t.Errorf("stage_exec_ms = %v, want one sample", h)
	}
	if h := reg.Hist("job_queue_wait_ms"); h != nil {
		t.Errorf("job_queue_wait_ms observed %d times; it was stage_admission_ms twice", h.Count())
	}
}

// TestTracedJobSpanNames pins the spans a traced job's worker side records
// and their attribute keys, which dashboards and bench/ read: the datasets
// of the exec stage share one start.
func TestTracedJobSpanNames(t *testing.T) {
	_, spans := tracedRun(t)
	got := map[string]string{}
	var execStart time.Time
	for _, sp := range spans {
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		got[sp.Name] = strings.Join(keys, ",")
		if strings.HasPrefix(sp.Name, "exec[") {
			if !execStart.IsZero() && !sp.Start.Equal(execStart) {
				t.Errorf("%s starts at %v, the first dataset at %v", sp.Name, sp.Start, execStart)
			}
			execStart = sp.Start
		}
	}
	want := map[string]string{
		"admission":   "worker",
		"scan":        "rejected",
		"compile":     "cache,ok",
		"kernelcheck": "analyzed,errors,findings,policy,reused",
	}
	for i := 0; i < labs.ByID("vector-add").NumDatasets; i++ {
		want[fmt.Sprintf("exec[dataset=%d]", i)] = "canceled,correct,instructions,sim_time"
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("spans (name → attribute keys)\n got %v\nwant %v", got, want)
	}
}
