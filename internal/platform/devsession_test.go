package platform

import (
	"net/http/httptest"
	"testing"
	"time"

	"webgpu/internal/labs"
)

// TestDevSessionSharesWorkerProgCache: a draft pushed through the live
// development loop checks and analyzes into the same content-addressed
// cache the worker tier uses, so the eventual submission of that source
// finds its diagnostics warm — the wiring the platform is responsible
// for. The draft's entry keeps no program, so the submission rebuilds it
// exactly once (a compile, as this platform has no artifact store).
func TestDevSessionSharesWorkerProgCache(t *testing.T) {
	p := New(Options{Workers: 1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	c := newClient(t, ts.URL)
	c.register("Ada", "ada@example.edu", "student")
	src := labs.ByID("vector-add").Reference

	var sess struct {
		SessionID string `json:"session_id"`
		DraftURL  string `json:"draft_url"`
	}
	c.mustDo("POST", "/api/v1/labs/vector-add/session", nil, &sess)
	c.mustDo("POST", sess.DraftURL, map[string]string{"source": src}, nil)

	// The draft analysis runs asynchronously; wait for its diagnostics
	// to land in the shared cache and its entry to drop the tree.
	deadline := time.Now().Add(10 * time.Second)
	for st := p.ProgCache().Stats(); st.Analyzes == 0 || st.Programs != 0; st = p.ProgCache().Stats() {
		if time.Now().After(deadline) {
			t.Fatal("draft never analyzed into the platform cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p.Server.DevSessions().Active() != 1 {
		t.Fatalf("Active sessions = %d, want 1", p.Server.DevSessions().Active())
	}

	// The worker-tier submission of the same source must reuse the
	// draft's diagnostics and rebuild the program the draft dropped once.
	before := p.ProgCache().Stats()
	if before.Compiles != 1 {
		t.Fatalf("the draft compiled %d times, want 1", before.Compiles)
	}
	c.mustDo("POST", "/api/v1/labs/vector-add/save", map[string]string{"source": src}, nil)
	c.mustDo("POST", "/api/v1/labs/vector-add/submit", nil, nil)
	after := p.ProgCache().Stats()
	if after.Analyzes != before.Analyzes || after.HitsDiagnostics != before.HitsDiagnostics+1 {
		t.Fatalf("submit re-analyzed (analyses %d -> %d, diagnostics hits %d -> %d); dev session cache not shared",
			before.Analyzes, after.Analyzes, before.HitsDiagnostics, after.HitsDiagnostics)
	}
	if after.Compiles != before.Compiles+1 || after.Misses != before.Misses+1 || after.Size != before.Size {
		t.Fatalf("submit did not rebuild the draft's program once in its entry: compiles %d -> %d, misses %d -> %d, entries %d -> %d",
			before.Compiles, after.Compiles, before.Misses, after.Misses, before.Size, after.Size)
	}
	if after.Programs != 1 {
		t.Fatalf("the submitted entry holds %d programs, want 1", after.Programs)
	}

	// Platform shutdown closes the session registry.
	p.Close()
	if n := p.Server.DevSessions().Active(); n != 0 {
		t.Fatalf("Active sessions after Close = %d, want 0", n)
	}
}
