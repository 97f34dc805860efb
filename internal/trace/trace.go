// Package trace is WebGPU's lightweight end-to-end job tracing layer:
// the answer to the v1 operational blind spot of §IV, where operators
// could not tell whether a slow submission spent its seconds in the web
// tier, the broker, or a worker. Every job API request opens a Trace;
// named child spans (queue_wait, admission, compile, exec[dataset=i],
// grade, ...) are recorded by whichever tier does the work; the trace ID
// rides with the job across the dispatch boundary (as a context value in
// v1's in-process push path, as a broker message tag plus job field in
// v2) and worker-side spans are carried back on the Result so the web
// tier always holds the complete picture. A fixed-capacity ring of
// recently finished traces backs the /api/v1/admin/traces endpoints.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/metrics"
)

// Span is one named, timed stage of a job's lifecycle.
type Span struct {
	Name  string            `json:"name"`
	Start time.Time         `json:"start"`
	Dur   time.Duration     `json:"dur_ns"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace accumulates the spans of one job. All methods are safe for
// concurrent use and safe on a nil receiver, so instrumented code paths
// never need to guard "is tracing enabled here".
type Trace struct {
	id      string
	started time.Time

	mu    sync.Mutex
	spans []Span
	ended time.Time
}

// New creates a standalone trace collector with the given ID — the form
// the v2 driver builds for a polled job that carries a trace ID.
func New(id string) *Trace {
	return &Trace{id: id, started: time.Now()}
}

// NewID generates a fresh trace identifier.
func NewID() string {
	b := make([]byte, 8)
	if _, err := rand.Read(b); err != nil {
		panic(err)
	}
	return "tr-" + hex.EncodeToString(b)
}

// ID returns the trace identifier ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Active is an open stage of a job, the stage's one instrument: End reads
// the stage's clock once, and that reading is both the span it records
// when the job is traced and the sample it observes in the stage's
// histogram whether it is or not, so no caller asks which. An untraced
// stage builds no attribute map and allocates nothing.
type Active struct {
	tr    *Trace
	reg   *metrics.Registry
	hists [2]string // histograms End observes; "" is none
	name  string    // the span; "" when only the stage's parts have spans
	clock clock.Clock
	start time.Time
	attrs map[string]string
}

// Stage opens a stage of t's job on the wall clock. End records it as the
// span name on t (unless t is nil or name is "") and as a sample of the
// histogram hist in reg (unless hist is ""). kv pairs become attributes.
func (t *Trace) Stage(reg *metrics.Registry, hist, name string, kv ...string) Active {
	return t.StageAt(time.Now(), clock.Real, reg, hist, name, kv...)
}

// StageAt is Stage for a stage that began at start and is timed by clk:
// a wait that began before this process saw the job (a broker message's
// enqueue), or a component whose clock is injected.
func (t *Trace) StageAt(start time.Time, clk clock.Clock, reg *metrics.Registry, hist, name string, kv ...string) Active {
	a := Active{tr: t, reg: reg, hists: [2]string{hist}, name: name, clock: clk, start: start}
	if t != nil {
		a.attrs = addAttrs(nil, kv)
	}
	return a
}

// StartSpan opens a stage that has a span and no histogram.
func (t *Trace) StartSpan(name string, kv ...string) Active {
	return t.Stage(nil, "", name, kv...)
}

// addAttrs adds kv pairs to m, making it on the first pair; a pair whose
// value is "" is left out.
func addAttrs(m map[string]string, kv []string) map[string]string {
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] == "" {
			continue
		}
		if m == nil {
			m = map[string]string{}
		}
		m[kv[i]] = kv[i+1]
	}
	return m
}

// Also makes End observe hist as well: a stage that falls in a class (a
// draft served warm) is a sample of the class's histogram too.
func (a Active) Also(hist string) Active {
	a.hists[1] = hist
	return a
}

// End closes the stage with kv as final attributes and returns how long
// it took: the span's Dur and the histograms' sample.
func (a Active) End(kv ...string) time.Duration {
	d := a.clock.Now().Sub(a.start)
	if a.reg != nil {
		for _, h := range a.hists {
			if h != "" {
				a.reg.ObserveDuration(h, d)
			}
		}
	}
	if a.tr != nil && a.name != "" {
		a.tr.Add(Span{Name: a.name, Start: a.start, Dur: d, Attrs: addAttrs(a.attrs, kv)})
	}
	return d
}

// Abandon closes a stage that was given up (a cancelled wait or draft):
// its span is recorded, but it is no sample of how long the stage takes.
func (a Active) Abandon(kv ...string) time.Duration {
	a.reg = nil
	return a.End(kv...)
}

// Part records, on a traced job, a span that starts with the stage and
// lasts dur: one of the parts the stage fans out to, as the datasets of
// an exec stage all start together.
func (a Active) Part(name string, dur time.Duration, kv ...string) {
	if a.tr != nil {
		a.tr.Add(Span{Name: name, Start: a.start, Dur: dur, Attrs: addAttrs(nil, kv)})
	}
}

// Add records an already-closed span (used to merge spans a remote
// worker reported back on its Result).
func (t *Trace) Add(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// AddAll merges a batch of completed spans.
func (t *Trace) AddAll(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// Finish marks the trace complete. Finishing twice is harmless.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.ended.IsZero() {
		t.ended = time.Now()
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Data is the JSON rendering of a trace for the admin API.
type Data struct {
	ID       string        `json:"id"`
	Started  time.Time     `json:"started"`
	Dur      time.Duration `json:"dur_ns"`
	Finished bool          `json:"finished"`
	Spans    []Span        `json:"spans"`
}

// Snapshot renders the trace for the admin API.
func (t *Trace) Snapshot() Data {
	if t == nil {
		return Data{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := Data{ID: t.id, Started: t.started, Spans: append([]Span(nil), t.spans...)}
	if !t.ended.IsZero() {
		d.Finished = true
		d.Dur = t.ended.Sub(t.started)
	} else {
		d.Dur = time.Since(t.started)
	}
	return d
}

// DefaultCapacity is how many recent traces a Store retains.
const DefaultCapacity = 256

// Store is a fixed-capacity ring of recent traces, newest evicting
// oldest, indexed by trace ID.
type Store struct {
	mu   sync.Mutex
	cap  int
	byID map[string]*Trace
	ring []string // insertion order, oldest first
}

// NewStore creates a store retaining up to capacity traces
// (<= 0 uses DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{cap: capacity, byID: map[string]*Trace{}}
}

// NewTrace creates, tracks, and returns a trace with a fresh ID.
func (s *Store) NewTrace() *Trace {
	tr := New(NewID())
	s.Track(tr)
	return tr
}

// Track adds a trace to the ring, evicting the oldest beyond capacity.
func (s *Store) Track(tr *Trace) {
	if s == nil || tr == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byID[tr.id]; dup {
		return
	}
	s.byID[tr.id] = tr
	s.ring = append(s.ring, tr.id)
	for len(s.ring) > s.cap {
		delete(s.byID, s.ring[0])
		s.ring = s.ring[1:]
	}
}

// Get returns the trace with the given ID, or nil.
func (s *Store) Get(id string) *Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// Recent returns up to n traces, newest first (n <= 0 returns all).
func (s *Store) Recent(n int) []Data {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	ids := append([]string(nil), s.ring...)
	trs := make([]*Trace, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		trs = append(trs, s.byID[ids[i]])
	}
	s.mu.Unlock()
	if n > 0 && len(trs) > n {
		trs = trs[:n]
	}
	out := make([]Data, len(trs))
	for i, tr := range trs {
		out[i] = tr.Snapshot()
	}
	return out
}

// Len reports how many traces are retained.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}
