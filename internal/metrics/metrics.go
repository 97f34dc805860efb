// Package metrics provides the counters, gauges, and histograms the v2
// worker nodes report to the replicated database, and the dashboard
// snapshot the system administrators watch (§VI-A: "An information
// dashboard is available to the system administrators to track the system
// status").
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counts     map[string]float64
	gauges     map[string]float64
	hists      map[string]*Histogram
	collectors []func(*Registry)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]float64{},
		gauges: map[string]float64{},
		hists:  map[string]*Histogram{},
	}
}

// Inc adds delta to a counter.
func (r *Registry) Inc(name string, delta float64) {
	r.mu.Lock()
	r.counts[name] += delta
	r.mu.Unlock()
}

// Set assigns a gauge.
func (r *Registry) Set(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe records a histogram sample.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	r.mu.Unlock()
	h.Observe(v)
}

// ObserveDuration records a duration sample in milliseconds.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	r.Observe(name, float64(d)/float64(time.Millisecond))
}

// Counter reads a counter.
func (r *Registry) Counter(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// Gauge reads a gauge.
func (r *Registry) Gauge(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Hist returns the named histogram, or nil.
func (r *Registry) Hist(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// AddCollector registers a function invoked before each export so
// subsystems with their own stats structs (program cache, broker, fleet)
// can refresh gauges lazily instead of pushing on every event.
func (r *Registry) AddCollector(fn func(*Registry)) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Collect runs all registered collectors (outside the registry lock, so
// collectors may call Set/Inc/Observe freely).
func (r *Registry) Collect() {
	r.mu.Lock()
	fns := make([]func(*Registry), len(r.collectors))
	copy(fns, r.collectors)
	r.mu.Unlock()
	for _, fn := range fns {
		fn(r)
	}
}

// promName rewrites a metric name into the Prometheus charset with the
// webgpu_ namespace prefix.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("webgpu_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PrometheusText runs the collectors and renders every metric in the
// Prometheus text exposition format: counters and gauges as single
// samples, histograms as summaries (quantile series plus _sum/_count).
func (r *Registry) PrometheusText() string {
	r.Collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	names := make([]string, 0, len(r.counts))
	for k := range r.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %g\n", n, n, r.counts[k])
	}
	names = names[:0]
	for k := range r.gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", n, n, r.gauges[k])
	}
	names = names[:0]
	for k := range r.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := r.hists[k]
		n := promName(k)
		fmt.Fprintf(&b, "# TYPE %s summary\n", n)
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(&b, "%s{quantile=%q} %g\n", n, fmt.Sprintf("%g", q), h.Quantile(q))
		}
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", n, h.Sum(), n, h.Count())
	}
	return b.String()
}

// Histogram is a simple sample-retaining histogram with reservoir capping.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	count   int64
	sum     float64
}

const histCap = 4096

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records a sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if len(h.samples) < histCap {
		h.samples = append(h.samples, v)
	} else {
		// Deterministic reservoir: overwrite in a rolling fashion.
		h.samples[int(h.count)%histCap] = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the q-quantile (0..1) of the retained samples.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	s := append([]float64(nil), h.samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
