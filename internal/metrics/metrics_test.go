package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Inc("jobs", 1)
	r.Inc("jobs", 2)
	r.Set("workers", 5)
	r.Set("workers", 3)
	if got := r.Counter("jobs"); got != 3 {
		t.Errorf("counter = %v", got)
	}
	if got := r.Gauge("workers"); got != 3 {
		t.Errorf("gauge = %v", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %v", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got < 45 || got > 55 {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Quantile(0.95); got < 90 || got > 100 {
		t.Errorf("p95 = %v", got)
	}
	if got := h.Sum() / float64(h.Count()); got < 50 || got > 51 {
		t.Errorf("mean = %v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Error("empty histogram not zero")
	}
}

func TestHistogramReservoirCap(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 3*histCap; i++ {
		h.Observe(1)
	}
	if h.Count() != int64(3*histCap) {
		t.Errorf("count = %d", h.Count())
	}
	if h.Quantile(0.99) != 1 {
		t.Errorf("quantile = %v", h.Quantile(0.99))
	}
}

func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	r.ObserveDuration("latency", 250*time.Millisecond)
	if got := r.Hist("latency").Sum(); got != 250 {
		t.Errorf("latency ms = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Inc("n", 1)
				r.Observe("h", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != 8000 {
		t.Errorf("counter = %v", got)
	}
	if got := r.Hist("h").Count(); got != 8000 {
		t.Errorf("hist count = %v", got)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Inc("jobs_total", 3)
	r.Set("workers", 2)
	r.Observe("latency_ms", 10)
	r.Observe("latency_ms", 20)
	out := r.PrometheusText()
	for _, want := range []string{
		"# TYPE webgpu_jobs_total counter",
		"webgpu_jobs_total 3",
		"# TYPE webgpu_workers gauge",
		"webgpu_workers 2",
		`webgpu_latency_ms{quantile="0.5"}`,
		"webgpu_latency_ms_sum 30",
		"webgpu_latency_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorsRefreshOnExport(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.AddCollector(func(reg *Registry) {
		n++
		reg.Set("lazy_gauge", float64(n))
	})
	_ = r.PrometheusText()
	out := r.PrometheusText()
	if n != 2 {
		t.Fatalf("collector ran %d times, want once per export", n)
	}
	if !strings.Contains(out, "webgpu_lazy_gauge 2") {
		t.Errorf("lazy gauge not refreshed:\n%s", out)
	}
}

func TestPromNameSanitized(t *testing.T) {
	r := NewRegistry()
	r.Inc("weird-name.with chars", 1)
	out := r.PrometheusText()
	if !strings.Contains(out, "webgpu_weird_name_with_chars 1") {
		t.Errorf("name not sanitized:\n%s", out)
	}
}
