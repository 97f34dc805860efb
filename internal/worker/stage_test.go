package worker

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/markdown"
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
// and their attribute keys, which dashboards and bench/ read, to DESIGN.md's
// span table (platform.TestSpanTable writes it in start order). The node's
// stages run after the job leaves the queue and before the web tier grades
// it, so its rows are exactly those between queue_wait and grade, each
// recorded once but exec, which has one span per dataset, all sharing one
// start.
func TestTracedJobSpanNames(t *testing.T) {
	_, spans := tracedRun(t)
	golden, _, err := markdown.Block("../../DESIGN.md", "gen:spans")
	if err != nil {
		t.Fatal(err)
	}
	_, after, _ := strings.Cut(golden, "| `queue_wait` |")
	_, after, _ = strings.Cut(after, "\n")
	want, _, ok := strings.Cut(after, "| `grade` |")
	if !ok {
		t.Fatalf("DESIGN.md's span table has no queue_wait ... grade rows:\n%s", golden)
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start.Before(spans[b].Start) })
	var rows []string
	var exec []trace.Span
	datasets := map[string]bool{}
	for _, sp := range spans {
		name := sp.Name
		if strings.HasPrefix(name, "exec[") {
			if exec, datasets[name], name = append(exec, sp), true, "exec[dataset=i]"; !sp.Start.Equal(exec[0].Start) {
				t.Errorf("%s starts at %v, %s at %v", sp.Name, sp.Start, exec[0].Name, exec[0].Start)
			}
		}
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		row := fmt.Sprintf("| `%s` | %s |\n", name, strings.Join(keys, ", "))
		if len(exec) > 1 && name == "exec[dataset=i]" && rows[len(rows)-1] == row {
			continue // the datasets' spans are one row
		}
		rows = append(rows, row)
	}
	if got := strings.Join(rows, ""); got != want {
		t.Errorf("the node's span rows, in start order:\n%s\nDESIGN.md's rows between queue_wait and grade:\n%s", got, want)
	}
	n := labs.ByID("vector-add").NumDatasets
	for i := 0; i < n; i++ {
		if !datasets[fmt.Sprintf("exec[dataset=%d]", i)] {
			t.Errorf("no exec span for dataset %d", i)
		}
	}
	if len(exec) != n {
		t.Errorf("%d exec spans for %d datasets", len(exec), n)
	}
}
