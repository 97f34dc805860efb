package platform

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/markdown"
	"webgpu/internal/trace"
	"webgpu/internal/webserver"
)

var update = flag.Bool("update", false, "rewrite DESIGN.md's metric series and span table")

// traceFlow submits one graded job and follows its trace ID from the
// submission response to /api/v1/admin/traces/{id}, asserting the span chain
// covers the web tier, the worker pipeline, and the grader.
func traceFlow(t *testing.T, p *Platform) {
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	alice := newClient(t, ts.URL)
	alice.register("Alice", "alice@example.edu", "student")
	src := labs.ByID("vector-add").Reference
	alice.mustDo("POST", "/api/v1/labs/vector-add/save", map[string]string{"source": src}, nil)

	var sub webserver.SubmissionRec
	alice.mustDo("POST", "/api/v1/labs/vector-add/submit", nil, &sub)
	if sub.TraceID == "" {
		t.Fatal("submission response carries no trace_id")
	}

	// The response header names the same trace.
	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/labs/vector-add/attempt?dataset=0", nil)
	req.Header.Set("Authorization", "Bearer "+alice.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-WebGPU-Trace") == "" {
		t.Error("attempt response has no X-WebGPU-Trace header")
	}

	// Students may not read the admin surface.
	if code, _ := alice.do("GET", "/api/v1/admin/traces/"+sub.TraceID, nil, nil); code != http.StatusForbidden {
		t.Errorf("student trace access = %d, want 403", code)
	}

	prof := newClient(t, ts.URL)
	prof.register("Prof", "prof@example.edu", "instructor")
	var data trace.Data
	prof.mustDo("GET", "/api/v1/admin/traces/"+sub.TraceID, nil, &data)
	if data.ID != sub.TraceID {
		t.Fatalf("trace id = %q, want %q", data.ID, sub.TraceID)
	}
	if len(data.Spans) < 5 {
		t.Fatalf("trace has %d spans, want >= 5: %+v", len(data.Spans), data.Spans)
	}
	names := map[string]bool{}
	for _, sp := range data.Spans {
		names[sp.Name] = true
		// The drivers polled an empty topic and blocked on the broker
		// while the test registered and saved; the broker's wake-up, not
		// a poll on the driver's own schedule, hands them the first job.
		if sp.Name == "queue_wait" && sp.Attrs["wake"] != "publish" {
			t.Errorf("queue_wait wake = %q, want publish (attrs %v)", sp.Attrs["wake"], sp.Attrs)
		}
	}
	for _, want := range []string{"dispatch", "queue_wait", "admission", "compile", "exec[dataset=0]", "grade"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, keysOf(names))
		}
	}
	// Every span's attribute keys are its row of DESIGN.md's span table.
	golden, _, err := markdown.Block("../../DESIGN.md", "gen:spans")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range data.Spans {
		if row := spanRow(sp); !strings.Contains(golden, row+"\n") {
			t.Errorf("span row %s is not in DESIGN.md's span table", row)
		}
	}

	// The listing sees it too, newest first.
	var listing struct {
		Total  int          `json:"total"`
		Traces []trace.Data `json:"traces"`
	}
	prof.mustDo("GET", "/api/v1/admin/traces", nil, &listing)
	if listing.Total < 2 || len(listing.Traces) < 2 {
		t.Fatalf("listing = total %d, %d traces", listing.Total, len(listing.Traces))
	}

	// The metrics dump reflects the work, in Prometheus text format.
	code, body := prof.do("GET", "/api/v1/admin/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{"webgpu_jobs_total", "webgpu_web_jobs_dispatched", "webgpu_stage_compile_ms"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics dump missing %s", want)
		}
	}
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := keysOf(m)
	sort.Strings(out)
	return out
}

func TestTraceEndToEndV2(t *testing.T) {
	p := New(Options{Workers: 2})
	defer p.Close()
	traceFlow(t, p)
	if got := p.Metrics().Counter("driver_wakeups"); got < 1 {
		t.Errorf("driver_wakeups = %v after a submit to an idle fleet", got)
	}
}

// TestCacheSeriesNames pins the names the compiled-program cache's
// collector (and the platform's one gauge beside it) exports from the
// first scrape, before any job; dashboards are written against them. The
// worker's own progcache_hits / _misses / _coalesced counters appear with
// the first job and are not part of the set.
func TestCacheSeriesNames(t *testing.T) {
	p := New(Options{Workers: 1, CacheDir: t.TempDir()})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	prof := newClient(t, ts.URL)
	prof.register("Prof", "prof@example.edu", "instructor")
	code, body := prof.do("GET", "/api/v1/admin/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	got := exportedNames(body)
	for name := range got {
		if !strings.HasPrefix(name, "progcache_") && !strings.HasPrefix(name, "kernelcheck_fn_") &&
			name != "kernelcheck_analyzes" && name != "workers" {
			delete(got, name)
		}
	}
	want := []string{
		"progcache_entries", "progcache_programs", "progcache_evictions", "progcache_hits_diagnostics",
		"progcache_bytecode_bytes", "progcache_disk_hits", "progcache_disk_diag_hits",
		"progcache_store_errors", "kernelcheck_analyzes", "kernelcheck_fn_analyzed", "kernelcheck_fn_reused", "workers",
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("metrics export is missing %s", name)
		}
		delete(got, name)
	}
	if len(got) != 0 {
		t.Errorf("metrics export has unexpected series %v", keysOf(got))
	}
}

// exportedNames is the set of series names a metrics dump declares.
func exportedNames(body string) map[string]bool {
	got := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE webgpu_"); ok {
			name, _, _ = strings.Cut(name, " ")
			got[name] = true
		}
	}
	return got
}

// warmPlatform runs one graded submit and one warm draft on a v2
// platform and returns an instructor's client for it.
func warmPlatform(t *testing.T) *client {
	p := New(Options{Workers: 1})
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	c := newClient(t, ts.URL)
	c.register("Ada", "ada@example.edu", "student")
	src := labs.ByID("vector-add").Reference
	c.mustDo("POST", "/api/v1/labs/vector-add/save", map[string]string{"source": src}, nil)
	c.mustDo("POST", "/api/v1/labs/vector-add/submit", nil, nil)
	var sess struct {
		DraftURL string `json:"draft_url"`
	}
	c.mustDo("POST", "/api/v1/labs/vector-add/session", nil, &sess)
	c.mustDo("POST", sess.DraftURL, map[string]string{"source": src}, nil) // the submit warmed it
	// The driver counts driver_jobs after it has published the result and
	// acked the job, so the submit can return before that series exists.
	m := p.Metrics()
	for deadline := time.Now().Add(10 * time.Second); m.Hist("devsession_draft_warm_ms") == nil || m.Counter("driver_jobs") < 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the warm draft never finished, or the driver never counted the submit")
		}
	}
	prof := newClient(t, ts.URL)
	prof.register("Prof", "prof@example.edu", "instructor")
	return prof
}

// TestExportedSeriesNames keeps DESIGN.md's metric series, one row per
// family, equal to every series a v2 platform exports after one graded
// submit and one warm draft. Dashboards are written against these names;
// the stage histograms among them come from the stages' End.
func TestExportedSeriesNames(t *testing.T) {
	code, body := warmPlatform(t).do("GET", "/api/v1/admin/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var b strings.Builder
	b.WriteString("| family | series (exported as `webgpu_<series>`) |\n|---|---|\n")
	var families []string
	series := map[string][]string{}
	for _, name := range sortedKeys(exportedNames(body)) {
		f, _, _ := strings.Cut(name, "_")
		if series[f] == nil {
			families = append(families, f)
		}
		series[f] = append(series[f], "`"+name+"`")
	}
	for _, f := range families {
		fmt.Fprintf(&b, "| %s | %s |\n", f, strings.Join(series[f], " "))
	}
	if err := markdown.SyncBlock("../../DESIGN.md", "gen:metrics", b.String(), *update); err != nil {
		t.Error(err)
	}
}

// TestSpanTable keeps DESIGN.md's span table equal to the spans of a
// traced v2 submit and a live-session draft: one row per span name, in
// start order, with its attribute keys. The datasets' exec spans are one
// row.
func TestSpanTable(t *testing.T) {
	var listing struct {
		Traces []trace.Data `json:"traces"`
	}
	warmPlatform(t).mustDo("GET", "/api/v1/admin/traces", nil, &listing)
	var b strings.Builder
	b.WriteString("| span | attributes |\n|---|---|\n")
	seen := map[string]bool{}
	for i := len(listing.Traces) - 1; i >= 0; i-- { // oldest first
		spans := listing.Traces[i].Spans
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start.Before(spans[b].Start) })
		for _, sp := range spans {
			if row := spanRow(sp); !seen[row] {
				seen[row] = true
				b.WriteString(row + "\n")
			}
		}
	}
	if err := markdown.SyncBlock("../../DESIGN.md", "gen:spans", b.String(), *update); err != nil {
		t.Error(err)
	}
}

// spanRow renders a span as its row of DESIGN.md's span table.
func spanRow(sp trace.Span) string {
	name := sp.Name
	if strings.HasPrefix(name, "exec[dataset=") {
		name = "exec[dataset=i]"
	}
	keys := make(map[string]bool, len(sp.Attrs))
	for k := range sp.Attrs {
		keys[k] = true
	}
	return fmt.Sprintf("| `%s` | %s |", name, strings.Join(sortedKeys(keys), ", "))
}
