package webserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"webgpu/internal/castore"
	"webgpu/internal/clock"
	"webgpu/internal/db"
	"webgpu/internal/grader"
	"webgpu/internal/labs"
	"webgpu/internal/peerreview"
	"webgpu/internal/sandbox"
)

// castoreFixture is newFixture plus an attached durable artifact store.
func castoreFixture(t *testing.T, store *castore.Store) *fixture {
	t.Helper()
	f := &fixture{t: t, clk: clock.NewManual(time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC)), tokens: map[string]string{}}
	f.srv = New(Config{
		DB:         db.New(),
		Dispatcher: fakeDispatcher(),
		Gradebook:  grader.NewCourseraBook("test"),
		Reviews:    peerreview.NewStore(0.10),
		Course:     labs.CourseHPP,
		Limits:     sandbox.DefaultLimits(),
		Clock:      f.clk,
		Artifacts:  store,
	})
	f.ts = newTestServer(t, f.srv)
	return f
}

func healthzReport(t *testing.T, f *fixture) (int, string, map[string]ComponentHealth) {
	t.Helper()
	code, body := f.req("GET", "/healthz", "", nil)
	var rep struct {
		Status     string                     `json:"status"`
		Components map[string]ComponentHealth `json:"components"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("healthz body: %v (%s)", err, body)
	}
	return code, rep.Status, rep.Components
}

// TestHealthzCastoreComponent covers the durable store's /healthz line:
// ok while intact, degraded (and 503) once corruption is quarantined.
func TestHealthzCastoreComponent(t *testing.T) {
	dir := t.TempDir()
	store, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	key := fmt.Sprintf("%064x", 1)
	if err := store.Put(key, "prog", []byte("artifact")); err != nil {
		t.Fatal(err)
	}

	f := castoreFixture(t, store)
	code, status, comps := healthzReport(t, f)
	if code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz with intact store = %d %q", code, status)
	}
	if c := comps["castore"]; c.Status != "ok" {
		t.Fatalf("castore component = %+v, want ok", c)
	}

	// Corrupt the artifact on disk; the next read quarantines it and the
	// component (and deployment) degrade.
	path := filepath.Join(dir, "objects", key[:2], key+".prog")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(key, "prog"); ok {
		t.Fatal("corrupt artifact served")
	}

	code, status, comps = healthzReport(t, f)
	if code != http.StatusServiceUnavailable || status != "degraded" {
		t.Fatalf("healthz with quarantined corruption = %d %q, want 503 degraded", code, status)
	}
	if c := comps["castore"]; c.Status != "degraded" {
		t.Fatalf("castore component = %+v, want degraded", c)
	}
}
