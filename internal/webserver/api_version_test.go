package webserver

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/markdown"
	"webgpu/internal/overload"
)

var update = flag.Bool("update", false, "rewrite DESIGN.md's route table from apiRoutes()")

// TestRouteTableDocumented keeps DESIGN.md's /api/v1 route table equal to
// apiRoutes(): method, pattern, who may call it, admission class.
func TestRouteTableDocumented(t *testing.T) {
	var b strings.Builder
	b.WriteString("| method | route (under `/api/v1`) | access | admission class |\n|---|---|---|---|\n")
	for _, rt := range newFixture(t).srv.apiRoutes() {
		class := "—"
		if rt.Class != overload.ClassNone {
			class = rt.Class.String()
		}
		fmt.Fprintf(&b, "| %s | `%s` | %s | %s |\n", rt.Method, rt.Pattern, rt.Access, class)
	}
	if err := markdown.SyncBlock("../../DESIGN.md", "gen:routes", b.String(), *update); err != nil {
		t.Error(err)
	}
}

// samplePath substitutes concrete values for a route pattern's path
// parameters so the conformance tables can issue real requests.
func samplePath(pattern string) string {
	return strings.NewReplacer(
		"{lab}", "vector-add",
		"{attempt}", "att-000000000001",
		"{token}", "no-such-token",
		"{user}", "u-000001",
		"{id}", "no-such-id",
	).Replace(pattern)
}

// doRaw issues a request and returns status, headers, and body.
func (f *fixture) doRaw(method, path, token string) (int, http.Header, []byte) {
	f.t.Helper()
	req, err := http.NewRequest(method, f.ts.URL+path, strings.NewReader(""))
	if err != nil {
		f.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// TestEveryRouteServedUnderV1 walks the whole route table: every route
// must resolve under /api/v1 (a JSON response from our handlers, never the
// mux's plain-text 404) and stamp the v1 version header, and must not
// resolve at the retired unversioned /api alias.
func TestEveryRouteServedUnderV1(t *testing.T) {
	f := newFixture(t)
	for _, rt := range f.srv.apiRoutes() {
		name := rt.Method + " " + rt.Pattern
		p := samplePath(rt.Pattern)

		_, hdr, body := f.doRaw(rt.Method, "/api/v1/"+p, "")
		if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s: /api/v1 content-type = %q (mux fell through?), body %q", name, ct, body)
			continue
		}
		if v := hdr.Get(APIVersionHeader); v != "v1" {
			t.Errorf("%s: v1 %s = %q, want \"v1\"", name, APIVersionHeader, v)
		}
		if code, _, _ := f.doRaw(rt.Method, "/api/"+p, ""); code != http.StatusNotFound {
			t.Errorf("%s: unversioned alias = %d, want 404", name, code)
		}
	}
	// Admission is keyed by the user, and a public route has none.
	defer func() {
		if recover() == nil {
			t.Error("a public route with an admission class was mounted")
		}
	}()
	f.srv.mount(apiRoute{"GET", "share/{token}", public, overload.ClassRead, f.srv.handleViewShare})
}

// TestErrorEnvelopeConformance drives every route in the table down an
// error path (no credentials, unknown resources, empty bodies) and asserts
// the response is the unified {"error":{"code","message"}} envelope with a
// stable non-empty code.
func TestErrorEnvelopeConformance(t *testing.T) {
	f := newFixture(t)
	for _, rt := range f.srv.apiRoutes() {
		name := rt.Method + " " + rt.Pattern
		code, hdr, body := f.doRaw(rt.Method, "/api/v1/"+samplePath(rt.Pattern), "")
		if code < 400 {
			t.Errorf("%s: unauthenticated empty-body request = %d, expected an error", name, code)
			continue
		}
		if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s: error content-type = %q", name, ct)
			continue
		}
		var env ErrorBody
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: error body is not the envelope: %v (%s)", name, err, body)
			continue
		}
		if env.Error.Code == "" || env.Error.Message == "" {
			t.Errorf("%s: envelope missing code/message: %s", name, body)
		}
		// Codes are a closed machine-readable set.
		switch env.Error.Code {
		case ErrCodeBadRequest, ErrCodeBadDataset, ErrCodeUnauthorized, ErrCodeForbidden,
			ErrCodeNotFound, ErrCodeConflict, ErrCodeRateLimited, ErrCodeWorkerUnavailable,
			ErrCodeInternal, ErrCodeNotImplemented:
		default:
			t.Errorf("%s: unknown error code %q", name, env.Error.Code)
		}
	}
}

// TestShareBeforeDeadlineEnvelope pins the handleShare deadline error to
// the envelope (it used to drop the machine code).
func TestShareBeforeDeadlineEnvelope(t *testing.T) {
	f := newFixture(t)
	tok := f.register("dl@x", "student")
	f.srv.SetDeadline("vector-add", f.clk.Now().Add(24*time.Hour))
	f.req("POST", "/api/v1/labs/vector-add/save", tok,
		map[string]string{"source": labs.ByID("vector-add").Reference})
	code, body := f.req("POST", "/api/v1/labs/vector-add/attempt", tok, map[string]int{"dataset_id": 0})
	if code != http.StatusOK {
		t.Fatalf("attempt = %d %s", code, body)
	}
	var att struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(body, &att)

	code, body = f.req("POST", "/api/v1/attempts/"+att.ID+"/share", tok, nil)
	if code != http.StatusForbidden {
		t.Fatalf("share before deadline = %d %s", code, body)
	}
	var env ErrorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("share error not enveloped: %v (%s)", err, body)
	}
	if env.Error.Code != ErrCodeForbidden {
		t.Fatalf("share error code = %q, want %q", env.Error.Code, ErrCodeForbidden)
	}
	if !strings.Contains(env.Error.Message, "deadline") {
		t.Fatalf("share error message = %q", env.Error.Message)
	}
}

// TestHealthzComponents: /healthz reports per-component JSON health and is
// part of the served route surface.
func TestHealthzComponents(t *testing.T) {
	f := newFixture(t)
	code, hdr, body := f.doRaw("GET", "/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("healthz content-type = %q", ct)
	}
	var rep struct {
		Status     string                     `json:"status"`
		Components map[string]ComponentHealth `json:"components"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("healthz body: %v (%s)", err, body)
	}
	if rep.Status != "ok" {
		t.Fatalf("healthz status = %q, want ok", rep.Status)
	}
	for _, comp := range []string{"db", "dispatcher", "broker", "progcache", "castore", "devsessions"} {
		c, ok := rep.Components[comp]
		if !ok {
			t.Errorf("healthz missing component %q", comp)
			continue
		}
		if comp == "broker" || comp == "castore" {
			// The test fixture has no broker and a memory-only cache
			// (no artifact store), and neither absence may degrade the
			// deployment.
			if c.Status != "absent" {
				t.Errorf("%s status = %q, want absent", comp, c.Status)
			}
			continue
		}
		if c.Status != "ok" {
			t.Errorf("component %s status = %q, want ok", comp, c.Status)
		}
	}
}

// TestAdminDeadLettersNotImplementedWithoutBroker: a web tier built
// without a broker (Config.Queue nil) answers the dead-letter endpoints
// with 501.
func TestAdminDeadLettersNotImplementedWithoutBroker(t *testing.T) {
	f := newFixture(t)
	prof := f.register("prof@x", "instructor")
	if code, body := f.req("GET", "/api/v1/admin/deadletters", prof, nil); code != http.StatusNotImplemented {
		t.Errorf("deadletters = %d %s, want 501", code, body)
	}
	if code, body := f.req("POST", "/api/v1/admin/deadletters/redrive", prof, nil); code != http.StatusNotImplemented {
		t.Errorf("redrive = %d %s, want 501", code, body)
	}
}
