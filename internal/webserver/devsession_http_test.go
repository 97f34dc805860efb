package webserver

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/db"
	"webgpu/internal/devsession"
	"webgpu/internal/grader"
	"webgpu/internal/labs"
	"webgpu/internal/metrics"
	"webgpu/internal/minicuda"
	"webgpu/internal/peerreview"
	"webgpu/internal/progcache"
	"webgpu/internal/sandbox"
)

// devFixture is the webserver fixture plus handles on the live-session
// plumbing (registry, cache, manager) the SSE tests instrument.
type devFixture struct {
	*fixture
	reg   *metrics.Registry
	cache *progcache.Cache
	mgr   *devsession.Manager
}

// newDevFixture builds a server around a test-tuned devsession manager.
// The manager runs on the real clock (SSE timing is what's under test);
// the rest of the server keeps the frozen fixture clock.
func newDevFixture(t *testing.T, dcfg devsession.Config) *devFixture {
	f := &fixture{t: t, clk: clock.NewManual(time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC)), tokens: map[string]string{}}
	reg := metrics.NewRegistry()
	if dcfg.Cache == nil {
		dcfg.Cache = progcache.New(64, nil)
	}
	dcfg.Metrics = reg
	mgr := devsession.NewManager(dcfg)
	t.Cleanup(mgr.CloseAll)
	f.srv = New(Config{
		DB:          db.New(),
		Dispatcher:  fakeDispatcher(),
		Gradebook:   grader.NewCourseraBook("test"),
		Reviews:     peerreview.NewStore(0.10),
		Course:      labs.CourseHPP,
		Limits:      sandbox.DefaultLimits(),
		Clock:       f.clk,
		Metrics:     reg,
		ProgCache:   dcfg.Cache,
		DevSessions: mgr,
	})
	f.ts = newTestServer(t, f.srv)
	return &devFixture{fixture: f, reg: reg, cache: dcfg.Cache, mgr: mgr}
}

// openSession opens a live session over HTTP and returns its URLs.
func (df *devFixture) openSession(tok, lab string) (id, eventsURL, draftURL string) {
	df.t.Helper()
	code, body := df.req("POST", "/api/v1/labs/"+lab+"/session", tok, nil)
	if code != http.StatusCreated {
		df.t.Fatalf("open session = %d %s", code, body)
	}
	var resp struct {
		SessionID string `json:"session_id"`
		EventsURL string `json:"events_url"`
		DraftURL  string `json:"draft_url"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		df.t.Fatal(err)
	}
	return resp.SessionID, resp.EventsURL, resp.DraftURL
}

// pushDraft pushes one draft over HTTP and returns its sequence number.
func (df *devFixture) pushDraft(tok, draftURL, source string) (seq int64, coalesced bool) {
	df.t.Helper()
	code, body := df.req("POST", draftURL, tok, map[string]string{"source": source})
	if code != http.StatusAccepted {
		df.t.Fatalf("push draft = %d %s", code, body)
	}
	var resp struct {
		Draft     int64 `json:"draft"`
		Coalesced bool  `json:"coalesced"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		df.t.Fatal(err)
	}
	return resp.Draft, resp.Coalesced
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	ID   int64
	Type string
	Ev   devsession.Event
	Data map[string]interface{} // the event's data object, decoded generically
}

// sseStream reads a live event stream in a goroutine.
type sseStream struct {
	Events <-chan sseEvent
	cancel context.CancelFunc
}

// Close drops the client connection (simulating a disconnect).
func (st *sseStream) Close() { st.cancel() }

// Next returns the next event within the timeout.
func (st *sseStream) Next(t *testing.T, what string) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-st.Events:
		if !ok {
			t.Fatalf("stream closed waiting for %s", what)
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	panic("unreachable")
}

// NextOfType skips events until one of the wanted type arrives.
func (st *sseStream) NextOfType(t *testing.T, typ string) sseEvent {
	t.Helper()
	for {
		ev := st.Next(t, typ+" event")
		if ev.Type == typ {
			return ev
		}
	}
}

// openSSE connects to an event stream. A heartbeat comment line comes
// through as an event of type "heartbeat"; each real event is parsed off
// the wire (id, event, data).
func openSSE(t *testing.T, url, token, lastEventID string) *sseStream {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		cancel()
		t.Fatalf("SSE connect = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		cancel()
		t.Fatalf("SSE content-type = %q", ct)
	}

	out := make(chan sseEvent, 64)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var cur sseEvent
		var data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if data != "" {
					_ = json.Unmarshal([]byte(data), &cur.Ev)
					var full struct {
						Data map[string]interface{} `json:"data"`
					}
					_ = json.Unmarshal([]byte(data), &full)
					cur.Data = full.Data
					out <- cur
				}
				cur, data = sseEvent{}, ""
			case line == ": heartbeat":
				out <- sseEvent{Type: "heartbeat"}
			case strings.HasPrefix(line, "id: "):
				cur.ID, _ = strconv.ParseInt(line[4:], 10, 64)
			case strings.HasPrefix(line, "event: "):
				cur.Type = line[7:]
			case strings.HasPrefix(line, "data: "):
				data = line[6:]
			}
		}
	}()
	t.Cleanup(cancel)
	return &sseStream{Events: out, cancel: cancel}
}

// TestSSEStreamsDraftEvents: the basic live loop over HTTP — open, attach
// the stream, push a draft, watch compile + diagnostics arrive as typed
// events.
func TestSSEStreamsDraftEvents(t *testing.T) {
	df := newDevFixture(t, devsession.Config{Debounce: -1, DraftInterval: -1})
	tok := df.register("live@x", "student")
	_, eventsURL, draftURL := df.openSession(tok, "vector-add")

	st := openSSE(t, df.ts.URL+eventsURL, tok, "")
	if ev := st.NextOfType(t, "status"); ev.Data["state"] != "open" {
		t.Fatalf("first status = %v", ev.Data)
	}
	seq, coalesced := df.pushDraft(tok, draftURL, labs.ByID("vector-add").Reference)
	if coalesced {
		t.Fatal("first draft reported coalesced")
	}
	comp := st.NextOfType(t, "compile")
	if int64(comp.Data["draft"].(float64)) != seq || comp.Data["ok"] != true {
		t.Fatalf("compile event = %v", comp.Data)
	}
	diag := st.NextOfType(t, "diagnostics")
	if int64(diag.Data["draft"].(float64)) != seq {
		t.Fatalf("diagnostics event = %v", diag.Data)
	}
	if diag.ID <= comp.ID {
		t.Fatalf("diagnostics id %d not after compile id %d", diag.ID, comp.ID)
	}
	// Both events say how long the draft waited for its pickup, which
	// elapsed_ms (counted from the pickup) leaves out.
	for _, ev := range []sseEvent{comp, diag} {
		if w, ok := ev.Data["waited_ms"].(float64); !ok || w < 0 {
			t.Fatalf("%s event waited_ms = %v, want a number >= 0", ev.Type, ev.Data["waited_ms"])
		}
	}
}

// TestSSEHeartbeatOnServerClock: a quiet stream's keepalive comment is
// timed by the server's clock, so advancing it sends one.
func TestSSEHeartbeatOnServerClock(t *testing.T) {
	df := newDevFixture(t, devsession.Config{Debounce: -1, DraftInterval: -1})
	tok := df.register("beat@x", "student")
	_, eventsURL, _ := df.openSession(tok, "vector-add")
	st := openSSE(t, df.ts.URL+eventsURL, tok, "")
	st.NextOfType(t, "status")
	df.clk.BlockUntil(1) // the stream's heartbeat timer
	df.clk.Advance(sseHeartbeat)
	st.NextOfType(t, "heartbeat")
}

// TestSSEDisconnectCancelsInflightAnalysis: dropping the SSE connection
// mid-analysis cancels the in-flight draft (the tentpole's cancellation
// criterion; the CI race matrix runs this under -race).
func TestSSEDisconnectCancelsInflightAnalysis(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	defer close(release)
	cache := progcache.New(16, nil)
	cache.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		started <- struct{}{}
		<-release
		return minicuda.Compile(src, d)
	})
	df := newDevFixture(t, devsession.Config{Cache: cache, Debounce: -1, DraftInterval: -1})
	tok := df.register("gone@x", "student")
	_, eventsURL, draftURL := df.openSession(tok, "vector-add")

	st := openSSE(t, df.ts.URL+eventsURL, tok, "")
	st.NextOfType(t, "status") // stream is attached
	df.pushDraft(tok, draftURL, labs.ByID("vector-add").Reference)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("analysis never started")
	}

	st.Close() // client disconnects mid-analysis

	deadline := time.Now().Add(5 * time.Second)
	for df.reg.Counter("devsession_draft_cancelled") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect did not cancel the in-flight analysis")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSSELastEventIDResume: a reconnecting client presents Last-Event-ID
// and receives exactly the buffered suffix.
func TestSSELastEventIDResume(t *testing.T) {
	df := newDevFixture(t, devsession.Config{Debounce: -1, DraftInterval: -1})
	tok := df.register("resume@x", "student")
	_, eventsURL, draftURL := df.openSession(tok, "vector-add")

	// First connection sees open(1) + compile(2) + diagnostics(3).
	st := openSSE(t, df.ts.URL+eventsURL, tok, "")
	st.NextOfType(t, "status")
	seq, _ := df.pushDraft(tok, draftURL, labs.ByID("vector-add").Reference)
	comp := st.NextOfType(t, "compile")
	diag := st.NextOfType(t, "diagnostics")
	st.Close()

	// Reconnect claiming we saw through the compile event.
	st2 := openSSE(t, df.ts.URL+eventsURL, tok, strconv.FormatInt(comp.ID, 10))
	got := st2.Next(t, "replayed event")
	if got.ID != diag.ID || got.Type != "diagnostics" {
		t.Fatalf("resume replayed (%d, %s), want (%d, diagnostics)", got.ID, got.Type, diag.ID)
	}
	if int64(got.Data["draft"].(float64)) != seq {
		t.Fatalf("replayed diagnostics for draft %v, want %d", got.Data["draft"], seq)
	}
	st2.Close()

	// A malformed Last-Event-ID is rejected with the envelope.
	req, _ := http.NewRequest("GET", df.ts.URL+eventsURL, nil)
	req.Header.Set("Authorization", "Bearer "+tok)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID = %d, want 400", resp.StatusCode)
	}
	var env ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != ErrCodeBadRequest {
		t.Fatalf("bad Last-Event-ID envelope: %v %+v", err, env)
	}
}

// TestDraftCoalescingOverHTTP: the first draft into a quiet session is
// analyzed at once; a rapid burst of pushes inside the window it opened
// triggers exactly one more analysis — of the last draft, when the window
// closes.
func TestDraftCoalescingOverHTTP(t *testing.T) {
	var mu sync.Mutex
	var compiled []string
	cache := progcache.New(16, nil)
	cache.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		mu.Lock()
		compiled = append(compiled, src)
		mu.Unlock()
		return minicuda.Compile(src, d)
	})
	const window = 250 * time.Millisecond
	df := newDevFixture(t, devsession.Config{Cache: cache, Debounce: window, DraftInterval: -1})
	tok := df.register("burst@x", "student")
	_, eventsURL, draftURL := df.openSession(tok, "vector-add")
	st := openSSE(t, df.ts.URL+eventsURL, tok, "")
	st.NextOfType(t, "status")
	diagnosticsFor := func(seq int64) {
		t.Helper()
		for int64(st.NextOfType(t, "diagnostics").Data["draft"].(float64)) != seq {
		}
	}

	const n = 4
	ref := labs.ByID("vector-add").Reference
	pickups := func() (lead, trail float64) {
		return df.reg.Counter("devsession_pickups_leading"), df.reg.Counter("devsession_pickups_trailing")
	}
	first, coalesced := df.pushDraft(tok, draftURL, ref)
	if coalesced {
		t.Fatal("first draft reported coalesced")
	}
	diagnosticsFor(first)
	// Picked up at once, not after the window: a leading pickup.
	if lead, trail := pickups(); lead != 1 || trail != 0 {
		t.Fatalf("first draft: pickups leading/trailing = %v/%v, want 1/0", lead, trail)
	}

	// The rest of the burst lands inside the window the pickup opened.
	var lastSeq int64
	var lastSrc string
	for i := 1; i < n; i++ {
		src := ref + strings.Repeat("\n", i)
		seq, coalesced := df.pushDraft(tok, draftURL, src)
		if wantCo := i > 1; coalesced != wantCo {
			t.Fatalf("push %d coalesced = %v, want %v", i, coalesced, wantCo)
		}
		lastSeq, lastSrc = seq, src
	}
	diagnosticsFor(lastSeq)
	// The burst waited out the window the first pickup opened.
	if lead, trail := pickups(); lead != 1 || trail != 1 {
		t.Fatalf("burst: pickups leading/trailing = %v/%v, want 1/1", lead, trail)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(compiled) != 2 || compiled[0] != ref || compiled[1] != lastSrc {
		t.Fatalf("compiled %d sources, want the first draft and the latest, once each", len(compiled))
	}
	if c := df.reg.Counter("devsession_draft_coalesced"); c != n-2 {
		t.Fatalf("devsession_draft_coalesced = %v, want %d", c, n-2)
	}
	if c := df.reg.Counter("devsession_drafts"); c != n {
		t.Fatalf("devsession_drafts = %v, want %d", c, n)
	}
}

// TestWarmIncrementalLatencyBudget: with the progcache hot, a repeated
// draft is served whole from it, end to end over HTTP at the debounce
// production runs (the pushes a window apart, as a client-debounced
// editor's are): its compile is a cache hit, and its diagnostics analyze
// no function and reuse every one. That is the budget; what it costs in
// milliseconds is measured by bench/'s interactive-mix, not bounded here.
func TestWarmIncrementalLatencyBudget(t *testing.T) {
	df := newDevFixture(t, devsession.Config{DraftInterval: -1})
	tok := df.register("warm@x", "student")
	_, eventsURL, draftURL := df.openSession(tok, "vector-add")
	st := openSSE(t, df.ts.URL+eventsURL, tok, "")
	st.NextOfType(t, "status")

	l := labs.ByID("vector-add")
	// Cold draft: compiles and analyzes for real, warming the cache.
	df.pushDraft(tok, draftURL, l.Reference)
	st.NextOfType(t, "diagnostics")
	prog, err := df.cache.Compile(l.Reference, l.Dialect)
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(devsession.DefaultDebounce)
	seq, _ := df.pushDraft(tok, draftURL, l.Reference)
	ofDraft := func(typ string) sseEvent {
		for {
			if ev := st.NextOfType(t, typ); int64(ev.Data["draft"].(float64)) == seq {
				return ev
			}
		}
	}
	if c := ofDraft("compile"); c.Data["cache"] != "hit" {
		t.Errorf("warm compile cache status = %v, want hit", c.Data["cache"])
	}
	d := ofDraft("diagnostics")
	if d.Data["analyzed"] != 0.0 || d.Data["reused"] != float64(len(prog.Funcs)) {
		t.Errorf("warm diagnostics analyzed %v and reused %v functions, want 0 and all %d",
			d.Data["analyzed"], d.Data["reused"], len(prog.Funcs))
	}
}

// TestSessionOwnershipAndValidation covers the error surface of the
// session endpoints.
func TestSessionOwnershipAndValidation(t *testing.T) {
	df := newDevFixture(t, devsession.Config{Debounce: -1, DraftInterval: -1})
	alice := df.register("alice@x", "student")
	mallory := df.register("mallory@x", "student")

	if code, _ := df.req("POST", "/api/v1/labs/no-such-lab/session", alice, nil); code != http.StatusNotFound {
		t.Fatalf("open on bogus lab = %d, want 404", code)
	}
	id, _, draftURL := df.openSession(alice, "vector-add")

	// Wrong owner: 403 with the envelope.
	code, body := df.req("POST", draftURL, mallory, map[string]string{"source": "x"})
	if code != http.StatusForbidden {
		t.Fatalf("cross-user draft = %d %s", code, body)
	}
	var env ErrorBody
	if json.Unmarshal(body, &env) != nil || env.Error.Code != ErrCodeForbidden {
		t.Fatalf("cross-user draft envelope = %s", body)
	}

	// Unknown session: 404.
	if code, _ := df.req("POST", "/api/v1/sessions/no-such-id/draft", alice, map[string]string{"source": "x"}); code != http.StatusNotFound {
		t.Fatalf("draft to unknown session = %d, want 404", code)
	}

	// Explicit close, then drafts conflict.
	if code, _ := df.req("DELETE", "/api/v1/sessions/"+id, alice, nil); code != http.StatusOK {
		t.Fatalf("close session = %d", code)
	}
	if code, _ := df.req("POST", draftURL, alice, map[string]string{"source": "x"}); code != http.StatusNotFound {
		// The registry forgets closed sessions, so the id no longer resolves.
		t.Fatalf("draft to closed session = %d, want 404", code)
	}
}

// TestSessionLimitOverHTTP: the per-user session bound surfaces as 429
// with the rate_limited code.
func TestSessionLimitOverHTTP(t *testing.T) {
	df := newDevFixture(t, devsession.Config{MaxPerUser: 1, Debounce: -1, DraftInterval: -1})
	tok := df.register("bound@x", "student")
	df.openSession(tok, "vector-add")
	code, body := df.req("POST", "/api/v1/labs/vector-add/session", tok, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second session = %d %s, want 429", code, body)
	}
	var env ErrorBody
	if json.Unmarshal(body, &env) != nil || env.Error.Code != ErrCodeRateLimited {
		t.Fatalf("session-limit envelope = %s", body)
	}
}

// TestFullSessionRegistryIsOverloaded: the deployment-wide session bound
// is the system's state, not one student's doing, so it answers as an
// admission shed does: 429 overloaded with a Retry-After.
func TestFullSessionRegistryIsOverloaded(t *testing.T) {
	df := newDevFixture(t, devsession.Config{MaxSessions: 1, Debounce: -1, DraftInterval: -1})
	df.openSession(df.register("first@x", "student"), "vector-add")
	req, _ := http.NewRequest("POST", df.ts.URL+"/api/v1/labs/vector-add/session", nil)
	req.Header.Set("Authorization", "Bearer "+df.register("second@x", "student"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("session past the registry bound = %d %s, want 429", resp.StatusCode, body)
	}
	var env ErrorBody
	if json.Unmarshal(body, &env) != nil || env.Error.Code != ErrCodeOverloaded {
		t.Fatalf("full-registry envelope = %s, want code %s", body, ErrCodeOverloaded)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want 2", ra)
	}
}
