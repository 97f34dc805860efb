package macrobench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/labs"
	"webgpu/internal/webserver"
	"webgpu/internal/worker"
)

// benchLab is the lab every job runs — same as the chaos soak, its
// reference solution compiles and grades quickly.
const benchLab = "vector-add"

// client is one authenticated student driving the platform over HTTP.
type client struct {
	base  string
	token string
	http  *http.Client
}

// apiError is the unified error envelope every non-2xx response carries.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// do issues one JSON request and decodes the envelope on failure.
func (c *client) do(method, path string, body interface{}) (int, string, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, "", nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, "", nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", nil, err
	}
	code := ""
	if resp.StatusCode >= 400 {
		var ae apiError
		if json.Unmarshal(data, &ae) == nil {
			code = ae.Error.Code
		}
	}
	return resp.StatusCode, code, data, nil
}

// register creates an account and returns an authenticated client.
func register(base string, hc *http.Client, name string) (*client, error) {
	c := &client{base: base, http: hc}
	status, code, data, err := c.do("POST", "/api/v1/register", map[string]string{
		"name":  name,
		"email": name + "@macrobench.invalid",
	})
	if err != nil {
		return nil, err
	}
	if status != http.StatusCreated {
		return nil, fmt.Errorf("register %s: status %d code %q", name, status, code)
	}
	var out struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	c.token = out.Token
	return c, nil
}

// Run drives one spike against a freshly booted platform and reports the
// Result. It finishes with the chaostest-style drain: faults off, dead
// letters redriven, queues empty, then the broker conservation check.
// The returned error carries the seed for replay.
func Run(s Scenario) (Result, error) {
	s = s.withDefaults()
	res := Result{Name: s.Name, Submissions: s.Submissions}
	fail := func(reg *faultinject.Registry, format string, args ...interface{}) (Result, error) {
		detail := ""
		if reg != nil {
			detail = "; " + reg.String()
		}
		return res, fmt.Errorf("%s: %s (replay with seed=%d%s)",
			s.Name, fmt.Sprintf(format, args...), s.Seed, detail)
	}

	reg := faultinject.New(s.Seed)
	p := newPlatform(s, reg)
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	hc := ts.Client()
	hc.Timeout = s.Timeout

	deadline := time.Now().Add(s.Timeout)
	ref := labs.ByID(benchLab).Reference

	// Population: one account per submitter/reader/drafter, registered
	// before chaos arms so setup cannot flake.
	submitters, errS := registerClients(ts.URL, hc, s.Name+"-sub", s.Submissions)
	readers, errR := registerClients(ts.URL, hc, s.Name+"-read", s.Readers)
	drafters, errD := registerClients(ts.URL, hc, s.Name+"-draft", s.Drafters)
	if err := errors.Join(errS, errR, errD); err != nil {
		return fail(nil, "setup: %v", err)
	}

	// Warm the compiled-program cache through the real pipeline, so the
	// spike runs the steady-state (cache-hit) path.
	if len(submitters) > 0 {
		status, code, _, err := submitters[0].do("POST", "/api/v1/labs/"+benchLab+"/submit",
			map[string]string{"source": ref})
		if err != nil || status != http.StatusOK {
			return fail(reg, "warmup submit: status %d code %q err %v", status, code, err)
		}
	}

	var (
		readShed, draftShed       int64
		submitShed, submitRetries int64
	)
	stopBG := make(chan struct{})
	var bg sync.WaitGroup

	// Background readers: history polls, the lowest-priority class.
	for _, c := range readers {
		bg.Add(1)
		go func(c *client) {
			defer bg.Done()
			for {
				select {
				case <-stopBG:
					return
				default:
				}
				status, code, _, err := c.do("GET", "/api/v1/labs/"+benchLab+"/history", nil)
				switch {
				case err != nil:
					// Transport errors (server shutting down) end the loop.
					return
				case status == http.StatusTooManyRequests && code == webserver.ErrCodeOverloaded:
					atomic.AddInt64(&readShed, 1)
				}
				time.Sleep(time.Millisecond)
			}
		}(c)
	}

	// Background drafters: live-session pushes, the middle class.
	for _, c := range drafters {
		bg.Add(1)
		go func(c *client) {
			defer bg.Done()
			status, _, data, err := c.do("POST", "/api/v1/labs/"+benchLab+"/session", nil)
			if err != nil || status != http.StatusCreated {
				return
			}
			var sess struct {
				DraftURL string `json:"draft_url"`
			}
			if json.Unmarshal(data, &sess) != nil || sess.DraftURL == "" {
				return
			}
			n := 0
			for {
				select {
				case <-stopBG:
					return
				default:
				}
				n++
				status, code, _, err := c.do("POST", sess.DraftURL,
					map[string]string{"source": fmt.Sprintf("// draft %d\n%s", n, ref)})
				switch {
				case err != nil:
					return
				case status == http.StatusTooManyRequests && code == webserver.ErrCodeOverloaded:
					atomic.AddInt64(&draftShed, 1)
				}
				time.Sleep(time.Millisecond)
			}
		}(c)
	}

	// The spike: chaos (if any) arms only now, and every submitter fires
	// after its seeded front-loaded jitter. A submission retries transient
	// failures (worker_unavailable under chaos, §III-C limiter residue)
	// until it lands or the deadline passes; the measured latency is the
	// whole retry span — what the student experienced, not one attempt.
	if s.Chaos {
		arm(reg, s.FaultRate)
	}
	offsets := jitters(s.Seed, len(submitters), 25*time.Millisecond)
	latencies := make([]time.Duration, len(submitters))
	errs := make([]error, len(submitters))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range submitters {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			time.Sleep(offsets[i])
			t0 := time.Now()
			for {
				status, code, _, err := c.do("POST", "/api/v1/labs/"+benchLab+"/submit",
					map[string]string{"source": ref})
				switch {
				case err != nil:
					errs[i] = err
				case status == http.StatusOK:
					latencies[i] = time.Since(t0)
					errs[i] = nil
					return
				case status == http.StatusTooManyRequests && code == webserver.ErrCodeOverloaded:
					// A shed submission is an acceptance failure; record it
					// and keep retrying so the drain below still converges.
					atomic.AddInt64(&submitShed, 1)
					errs[i] = fmt.Errorf("submission shed (code %s)", code)
				default:
					errs[i] = fmt.Errorf("status %d code %q", status, code)
				}
				if time.Now().After(deadline) {
					return
				}
				atomic.AddInt64(&submitRetries, 1)
				time.Sleep(5 * time.Millisecond)
			}
		}(i, c)
	}
	wg.Wait()
	close(stopBG)
	bg.Wait()
	res.DurationMs = float64(time.Since(start)) / float64(time.Millisecond)

	for _, err := range errs {
		if err == nil {
			res.SubmitOK++
		}
	}
	res.SubmitShed = int(atomic.LoadInt64(&submitShed))
	res.SubmitRetries = int(atomic.LoadInt64(&submitRetries))
	res.ReadShed = int(atomic.LoadInt64(&readShed))
	res.DraftShed = int(atomic.LoadInt64(&draftShed))

	ok := make([]time.Duration, 0, len(latencies))
	for i, d := range latencies {
		if errs[i] == nil {
			ok = append(ok, d)
		}
	}
	res.summarize(ok)

	// Drain: chaos off, redrive whatever dead-lettered, wait for empty
	// queues, then check conservation.
	reg.DisableAll()
	for {
		p.Broker.RedriveDeadLetters()
		if p.Broker.Depth(worker.TopicJobs) == 0 &&
			p.Broker.Depth(worker.TopicResults) == 0 &&
			len(p.Broker.DeadLetters()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fail(reg, "drain stalled: jobs depth=%d, results depth=%d, dead=%d",
				p.Broker.Depth(worker.TopicJobs), p.Broker.Depth(worker.TopicResults),
				len(p.Broker.DeadLetters()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Leases for redriven/abandoned jobs may still be settling.
	for p.Broker.Unaccounted() != 0 && !time.Now().After(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	res.LostJobs = p.Broker.Unaccounted()
	res.DeadLetters = len(p.Broker.DeadLetters())

	for i, err := range errs {
		if err != nil {
			return fail(reg, "submitter %d never landed: %v (%d/%d ok)",
				i, err, res.SubmitOK, s.Submissions)
		}
	}
	if res.LostJobs != 0 {
		return fail(reg, "broker counters unbalanced by %d (positive = lost, negative = double-counted)",
			res.LostJobs)
	}
	return res, nil
}
