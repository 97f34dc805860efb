package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"webgpu/internal/devsession"
	"webgpu/internal/grader"
	"webgpu/internal/labs"
	"webgpu/internal/webserver"
	"webgpu/internal/worker"
)

// client is one authenticated student on exactly one HTTP connection:
// the load is closed-loop, so a client never has two requests in flight
// and the transport never opens a second connection.
type client struct {
	base  string
	token string
	hc    *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

// close drops the client's connection.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do issues one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// expect issues a request that set-up depends on and fails on any other
// status than want.
func (c *client) expect(want int, method, path string, body []byte) ([]byte, error) {
	status, _, data, err := c.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, firstLine(data))
	}
	return data, nil
}

// register creates an account on the platform and authenticates c as it.
func (c *client) register(name string) error {
	body := mustJSON(map[string]string{"name": name, "email": name + "@bench.invalid"})
	data, err := c.expect(http.StatusCreated, "POST", "/api/v1/register", body)
	if err != nil {
		return err
	}
	var out struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(data, &out); err != nil || out.Token == "" {
		return fmt.Errorf("register %s: no token in %s (%v)", name, firstLine(data), err)
	}
	c.token = out.Token
	return nil
}

// answerAll fills in every short-answer question of the lab, so that a
// correct submission earns the rubric's maximum and the oracle can demand
// total == max.
func (c *client) answerAll(l *labs.Lab) error {
	answers := make([]string, len(l.Questions))
	for i := range answers {
		answers[i] = "answered"
	}
	_, err := c.expect(http.StatusOK, "POST", "/api/v1/labs/"+l.ID+"/questions",
		mustJSON(map[string][]string{"answers": answers}))
	return err
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only ever called on maps and slices of strings
	}
	return b
}

func sourceBody(src string) []byte { return mustJSON(map[string]string{"source": src}) }

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// ---- Verdict oracle ---------------------------------------------------------
//
// Every response is checked before it counts. A status other than the
// expected one — 429 and 503 included — is a failure like a wrong verdict.

// checkSubmit demands HTTP 200, one correct outcome per dataset (the
// harness compares against the expected output the dataset generator
// computed on the host, independent of any engine) and a full-marks
// grade. It returns the simulated cycles the submission's kernels cost.
func checkSubmit(l *labs.Lab, status int, data []byte) (simCycles int64, err error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("submit %s: status %d: %s", l.ID, status, firstLine(data))
	}
	var sub webserver.SubmissionRec
	if err := json.Unmarshal(data, &sub); err != nil {
		return 0, fmt.Errorf("submit %s: %w", l.ID, err)
	}
	if len(sub.Outcomes) != l.NumDatasets {
		return 0, fmt.Errorf("submit %s: %d outcomes, want %d", l.ID, len(sub.Outcomes), l.NumDatasets)
	}
	for _, o := range sub.Outcomes {
		if !o.Correct {
			return 0, fmt.Errorf("submit %s dataset %d: not correct: %s%s%s",
				l.ID, o.DatasetID, o.CompileError, o.RuntimeError, o.CheckMessage)
		}
		for _, k := range o.Kernels {
			simCycles += k.SimCycles
		}
	}
	if err := checkFullMarks(l, sub.Grade); err != nil {
		return 0, fmt.Errorf("submit %s: %w", l.ID, err)
	}
	return simCycles, nil
}

func checkFullMarks(l *labs.Lab, g *grader.Grade) error {
	if g == nil {
		return fmt.Errorf("no grade")
	}
	if g.Max != l.MaxPoints() || g.Total != g.Max {
		return fmt.Errorf("grade %d/%d, want %d/%d", g.Total, g.Max, l.MaxPoints(), l.MaxPoints())
	}
	return nil
}

// checkCompile demands HTTP 200 and "compiled", or — for a source the
// generator broke on purpose — a compile error naming the injected
// identifier.
func checkCompile(l *labs.Lab, wantIdent string, status int, data []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("compile %s: status %d: %s", l.ID, status, firstLine(data))
	}
	var res worker.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("compile %s: %w", l.ID, err)
	}
	if res.Error != "" || len(res.Outcomes) != 1 {
		return fmt.Errorf("compile %s: error %q, %d outcomes", l.ID, res.Error, len(res.Outcomes))
	}
	o := res.Outcomes[0]
	if wantIdent == "" {
		if !o.Compiled || o.CompileError != "" {
			return fmt.Errorf("compile %s: not compiled: %s", l.ID, o.CompileError)
		}
		return nil
	}
	if o.Compiled || !strings.Contains(o.CompileError, wantIdent) {
		return fmt.Errorf("compile %s: want an error naming %s, got compiled=%v %q",
			l.ID, wantIdent, o.Compiled, o.CompileError)
	}
	return nil
}

// checkTotal demands HTTP 200 and a paginated listing whose total is the
// count the generator knows the user has.
func checkTotal(what string, want, status int, data []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", what, status, firstLine(data))
	}
	var out struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if out.Total != want {
		return fmt.Errorf("%s: total %d, want %d", what, out.Total, want)
	}
	return nil
}

// ---- Server-sent events -----------------------------------------------------

// sseEvent is one parsed event of a session stream.
type sseEvent struct {
	typ  string
	data []byte
}

// sseStream is the student's event-stream connection. Its reader
// goroutine is the second (and last) client goroutine of interactive-mix.
type sseStream struct {
	events chan sseEvent
	cancel context.CancelFunc
	done   chan struct{}
	err    error // set before done closes
}

// openSSE connects to the session's event stream on c's connection.
func openSSE(c *client, path string) (*sseStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+path, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	// The buffer holds a whole cycle's events (status, compile,
	// diagnostics), so the reader never blocks on the student mid-cycle.
	s := &sseStream{events: make(chan sseEvent, 16), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		s.err = s.read(ctx, resp.Body)
	}()
	return s, nil
}

func (s *sseStream) read(ctx context.Context, body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(line[len("data: "):])
		case line == "" && ev.typ != "":
			select {
			case s.events <- ev:
			case <-ctx.Done():
				return nil
			}
			ev = sseEvent{}
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// close stops the stream and waits for its reader to exit.
func (s *sseStream) close() {
	s.cancel()
	<-s.done
}

// awaitDiagnostics reads events until the diagnostics of the given draft
// arrive. A compile event reporting failure for that draft is an error:
// every generated draft compiles.
func (s *sseStream) awaitDiagnostics(draft int64) (devsession.DiagnosticsPayload, error) {
	timeout := time.After(10 * time.Second)
	for {
		select {
		case <-timeout:
			return devsession.DiagnosticsPayload{}, fmt.Errorf("no diagnostics event for draft %d", draft)
		case ev := <-s.events:
			switch ev.typ {
			case devsession.EventCompile:
				var e struct {
					Data devsession.CompilePayload `json:"data"`
				}
				if err := json.Unmarshal(ev.data, &e); err != nil {
					return devsession.DiagnosticsPayload{}, err
				}
				if e.Data.Draft == draft && !e.Data.OK {
					return devsession.DiagnosticsPayload{}, fmt.Errorf("draft %d did not compile: %s", draft, e.Data.Error)
				}
			case devsession.EventDiagnostics:
				var e struct {
					Data devsession.DiagnosticsPayload `json:"data"`
				}
				if err := json.Unmarshal(ev.data, &e); err != nil {
					return devsession.DiagnosticsPayload{}, err
				}
				if e.Data.Draft == draft {
					return e.Data, nil
				}
			}
		case <-s.done:
			return devsession.DiagnosticsPayload{}, fmt.Errorf("event stream ended: %v", s.err)
		}
	}
}
