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
// a worker node builds when a job arrives carrying a trace ID but no
// in-process trace (the v2 poll path).
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

// Active is an open span; call End (or EndAttrs) to record it.
type Active struct {
	tr    *Trace
	name  string
	start time.Time
	attrs map[string]string
}

// StartSpan opens a named span. Optional kv pairs become attributes.
func (t *Trace) StartSpan(name string, kv ...string) *Active {
	if t == nil {
		return nil
	}
	a := &Active{tr: t, name: name, start: time.Now()}
	a.setAttrs(kv)
	return a
}

func (a *Active) setAttrs(kv []string) {
	for i := 0; i+1 < len(kv); i += 2 {
		if a.attrs == nil {
			a.attrs = map[string]string{}
		}
		a.attrs[kv[i]] = kv[i+1]
	}
}

// SetAttr attaches an attribute to an open span.
func (a *Active) SetAttr(k, v string) *Active {
	if a == nil {
		return nil
	}
	if a.attrs == nil {
		a.attrs = map[string]string{}
	}
	a.attrs[k] = v
	return a
}

// End closes the span and records it on the trace.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.tr.Add(Span{Name: a.name, Start: a.start, Dur: time.Since(a.start), Attrs: a.attrs})
}

// EndAttrs closes the span with final kv attribute pairs.
func (a *Active) EndAttrs(kv ...string) {
	if a == nil {
		return
	}
	a.setAttrs(kv)
	a.End()
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
