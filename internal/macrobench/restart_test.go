package macrobench

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"webgpu/internal/labs"
)

// TestRestartStorm is the durable-store acceptance run: a platform warms
// a store directory with real traffic, restarts against it, and must
// serve the whole working set with zero recompiles at near-warm latency.
// The zero-recompile and latency-bound assertions live inside
// runRestartStorm — an error here IS the regression.
func TestRestartStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("two full platform boots; skipped in -short")
	}
	for _, seed := range soakSeeds(t) {
		res, err := runRestartStorm(Scenario{Name: "restart-storm", Seed: seed,
			Workers: 2, GPUsPerWorker: 2, Multiplier: 2})
		if err != nil {
			t.Fatalf("%v\nreplay with CHAOS_SEED=%d", err, seed)
		}
		t.Logf("restart-storm: cold p50 %.1fms, pre-restart warm p50 %.1fms, post-restart p50 %.1fms, %d recompiles, %d disk hits",
			res.ColdP50Ms, res.PreRestartP50Ms, res.PostRestartP50Ms, res.Recompiles, res.DiskHits)

		if res.SubmitOK != res.Submissions {
			t.Errorf("submit_ok = %d, want %d (seed %d)", res.SubmitOK, res.Submissions, seed)
		}
		if res.Recompiles != 0 {
			t.Errorf("recompiles = %d after restart, want 0 (seed %d)", res.Recompiles, seed)
		}
		if res.DiskHits != int64(res.Submissions) {
			t.Errorf("disk_hits = %d, want one per source (%d) (seed %d)", res.DiskHits, res.Submissions, seed)
		}
		if res.ColdP50Ms == 0 || res.PostRestartP50Ms == 0 {
			t.Errorf("phase medians missing: cold %.2f post %.2f (seed %d)",
				res.ColdP50Ms, res.PostRestartP50Ms, seed)
		}
	}
}

// runRestartStorm measures the cold-restart recompile storm end to end:
// boot a platform against a durable artifact store, warm the store with
// real submission traffic, tear the whole deployment down, boot a second
// platform on the same directory, and drive the same working set through
// it. A deployment without the store would recompile every source after
// the restart (the storm); with it, the reboot must recompile nothing
// and serve near-warm latency — both are hard assertions here, so the
// test fails if durability regresses.
func runRestartStorm(s Scenario) (Result, error) {
	s = s.withDefaults()
	res := Result{Name: s.Name, Submissions: s.Submissions}
	fail := func(format string, args ...interface{}) (Result, error) {
		return res, fmt.Errorf("%s: %s (replay with seed=%d)",
			s.Name, fmt.Sprintf(format, args...), s.Seed)
	}

	dir, err := os.MkdirTemp("", "webgpu-restart-storm-")
	if err != nil {
		return fail("cache dir: %v", err)
	}
	defer os.RemoveAll(dir)

	// The working set: one distinct source per submitter, each the
	// reference solution under a distinguishing comment, so every
	// submission compiles to its own cache key but still grades correct.
	ref := labs.ByID(benchLab).Reference
	sources := make([]string, s.Submissions)
	for i := range sources {
		sources[i] = fmt.Sprintf("// restart-storm variant %d\n%s", i, ref)
	}

	deadline := time.Now().Add(s.Timeout)
	start := time.Now()

	// Phase A: first boot. The cold pass compiles and persists every
	// program; the warm re-pass sets the pre-restart latency baseline
	// (memory-cache hits, the steady state the reboot must match).
	s.CacheDir = dir
	p1 := newPlatform(s, nil)
	ts1 := httptest.NewServer(p1.Handler())
	hc1 := ts1.Client()
	hc1.Timeout = s.Timeout
	closed1 := false
	close1 := func() {
		if !closed1 {
			closed1 = true
			ts1.Close()
			p1.Close()
		}
	}
	defer close1()
	if p1.ArtifactStore() == nil {
		return fail("first boot has no artifact store at %s", dir)
	}

	clientsA, err := registerClients(ts1.URL, hc1, s.Name+"-a", len(sources))
	if err != nil {
		return fail("setup: %v", err)
	}
	cold, err := submitWave(clientsA, sources, s.Seed, deadline)
	if err != nil {
		return fail("cold pass: %v", err)
	}
	warm, err := submitWave(clientsA, sources, s.Seed+1, deadline)
	if err != nil {
		return fail("warm pass: %v", err)
	}
	persisted := p1.ArtifactStore().Stats().Objects
	close1()

	// Phase B: the restart. A fresh platform on the same store directory
	// reads every program through from disk; nothing may recompile.
	p2 := newPlatform(s, nil)
	defer p2.Close()
	ts2 := httptest.NewServer(p2.Handler())
	defer ts2.Close()
	hc2 := ts2.Client()
	hc2.Timeout = s.Timeout
	if p2.ArtifactStore() == nil {
		return fail("rebooted platform has no artifact store at %s", dir)
	}

	clientsB, err := registerClients(ts2.URL, hc2, s.Name+"-b", len(sources))
	if err != nil {
		return fail("restart setup: %v", err)
	}
	post, err := submitWave(clientsB, sources, s.Seed+2, deadline)
	if err != nil {
		return fail("post-restart pass: %v", err)
	}

	stats := p2.ProgCache().Stats()
	res.SubmitOK = len(post)
	res.Recompiles = stats.Compiles
	res.DiskHits = stats.DiskHits
	res.ColdP50Ms = p50ms(cold)
	res.PreRestartP50Ms = p50ms(warm)
	res.PostRestartP50Ms = p50ms(post)
	res.summarize(post)
	res.DurationMs = float64(time.Since(start)) / float64(time.Millisecond)

	if res.Recompiles != 0 {
		return fail("rebooted platform recompiled %d sources (want 0; %d disk hits, %d objects persisted)",
			res.Recompiles, res.DiskHits, persisted)
	}
	if res.DiskHits != int64(len(sources)) {
		return fail("rebooted platform read %d programs from the durable store, want each of the %d sources once (%d objects persisted)",
			res.DiskHits, len(sources), persisted)
	}
	// Near-warm bound: 2× the pre-restart warm median, with a small
	// absolute floor so sub-millisecond medians don't flake the ratio.
	bound := 2 * res.PreRestartP50Ms
	if floor := res.PreRestartP50Ms + 25; floor > bound {
		bound = floor
	}
	if res.PostRestartP50Ms > bound {
		return fail("post-restart p50 %.1fms exceeds near-warm bound %.1fms (pre-restart warm p50 %.1fms, cold p50 %.1fms)",
			res.PostRestartP50Ms, bound, res.PreRestartP50Ms, res.ColdP50Ms)
	}
	return res, nil
}

// registerClients creates n authenticated accounts.
func registerClients(base string, hc *http.Client, prefix string, n int) ([]*client, error) {
	out := make([]*client, n)
	for i := range out {
		c, err := register(base, hc, fmt.Sprintf("%s-%04d", prefix, i))
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// submitWave fires client i's source i after its seeded jitter, retrying
// transient failures until the deadline, and returns the per-submitter
// latencies (the whole retry span, as the student experienced it).
func submitWave(clients []*client, sources []string, seed int64, deadline time.Time) ([]time.Duration, error) {
	offsets := jitters(seed, len(clients), 25*time.Millisecond)
	latencies := make([]time.Duration, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			time.Sleep(offsets[i])
			t0 := time.Now()
			for {
				status, code, _, err := c.do("POST", "/api/v1/labs/"+benchLab+"/submit",
					map[string]string{"source": sources[i]})
				switch {
				case err != nil:
					errs[i] = err
				case status == http.StatusOK:
					latencies[i] = time.Since(t0)
					errs[i] = nil
					return
				default:
					errs[i] = fmt.Errorf("status %d code %q", status, code)
				}
				if time.Now().After(deadline) {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("submitter %d never landed: %v", i, err)
		}
	}
	return latencies, nil
}

// p50ms reads the median from raw durations, in milliseconds.
func p50ms(latencies []time.Duration) float64 {
	ms := make([]float64, len(latencies))
	for i, d := range latencies {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return quantile(ms, 0.50)
}
