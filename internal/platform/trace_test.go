package platform

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/trace"
	"webgpu/internal/webserver"
)

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
		// The first job of an idle v2 fleet is picked up because the broker
		// woke a driver, not because a poll interval ran out.
		if p.Arch == V2 && sp.Name == "queue_wait" && sp.Attrs["wake"] != "publish" {
			t.Errorf("queue_wait wake = %q, want publish (attrs %v)", sp.Attrs["wake"], sp.Attrs)
		}
	}
	for _, want := range []string{"dispatch", "queue_wait", "admission", "compile", "exec[dataset=0]", "grade"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, keysOf(names))
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

func TestTraceEndToEndV1(t *testing.T) {
	p := New(Options{Arch: V1, Workers: 2})
	defer p.Close()
	traceFlow(t, p)
}

func TestTraceEndToEndV2(t *testing.T) {
	p := New(Options{Arch: V2, Workers: 2})
	defer p.Close()
	// Stretch the drivers' fallback tick to a second, and wait until their
	// 5 ms ticks have stopped, so the flow's job cannot land in the instant
	// between a tick and its poll and be reported as wake=tick.
	cfg, _ := p.ConfigServer.Get()
	cfg.PollInterval = time.Second
	p.ConfigServer.Update(cfg)
	for last := -1.0; ; time.Sleep(20 * time.Millisecond) {
		ticks := p.Metrics().Counter("driver_idle_ticks")
		if ticks == last {
			break
		}
		last = ticks
	}
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
	p := New(Options{Arch: V2, Workers: 1, CacheDir: t.TempDir()})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	prof := newClient(t, ts.URL)
	prof.register("Prof", "prof@example.edu", "instructor")
	code, body := prof.do("GET", "/api/v1/admin/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	got := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE webgpu_")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, " ")
		if strings.HasPrefix(name, "progcache_") || name == "kernelcheck_analyzes" || name == "workers" {
			got[name] = true
		}
	}
	want := []string{
		"progcache_entries", "progcache_evictions",
		"progcache_hits_ast", "progcache_hits_bytecode_warp", "progcache_hits_diagnostics",
		"progcache_bytecode_bytes", "progcache_disk_hits", "progcache_disk_diag_hits",
		"progcache_store_errors", "kernelcheck_analyzes", "workers",
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
