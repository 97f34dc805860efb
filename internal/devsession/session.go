package devsession

import (
	"context"
	"strconv"
	"sync"
	"time"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/minicuda"
	"webgpu/internal/progcache"
)

// Event types, in the order a draft normally produces them.
const (
	EventStatus      = "status"      // lifecycle: open, cancelled, closed, evicted
	EventCompile     = "compile"     // one draft's compile verdict
	EventDiagnostics = "diagnostics" // one draft's kernelcheck findings
)

// Event is one typed message on a session's stream. Seq is the stream
// position SSE clients echo back as Last-Event-ID to resume.
type Event struct {
	Seq  int64       `json:"seq"`
	Type string      `json:"type"`
	At   time.Time   `json:"at"`
	Data interface{} `json:"data"`
}

// CompilePayload is the data of a "compile" event. WaitedMS is the time
// from the push to the draft's pickup (the spacing window, on the manager's
// clock); ElapsedMS runs from the pickup, so the two add up to the
// server-side share of the student's wait.
type CompilePayload struct {
	Draft     int64   `json:"draft"`
	Cache     string  `json:"cache"` // hit | miss | coalesced
	OK        bool    `json:"ok"`
	Error     string  `json:"error,omitempty"`
	WaitedMS  float64 `json:"waited_ms"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// DiagnosticsPayload is the data of a "diagnostics" event. Diagnostics is
// never null so clients can always range over it. Analyzed and Reused
// report the incremental engine's work split for this draft: how many
// functions were re-analyzed versus spliced from the per-session cache
// (a draft served whole from the shared program cache reports every
// function as reused).
type DiagnosticsPayload struct {
	Draft       int64                    `json:"draft"`
	Diagnostics []kernelcheck.Diagnostic `json:"diagnostics"`
	Analyzed    int                      `json:"analyzed"`
	Reused      int                      `json:"reused"`
	WaitedMS    float64                  `json:"waited_ms"` // push → pickup, as in CompilePayload
	ElapsedMS   float64                  `json:"elapsed_ms"`
}

// StatusPayload is the data of a "status" event.
type StatusPayload struct {
	State  string `json:"state"`
	Draft  int64  `json:"draft,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// draft is one pushed source revision waiting for (or under) analysis.
type draft struct {
	seq      int64
	source   string
	queuedAt time.Time
}

// Session is one student's live editing loop on one lab.
type Session struct {
	ID      string
	UserID  string
	LabID   string
	Dialect minicuda.Dialect

	m      *Manager
	ctx    context.Context // closed-session root; inflight ctxs derive from it
	cancel context.CancelFunc
	notify chan struct{} // draft-arrival signal, capacity 1
	inc    *kernelcheck.Incremental

	mu             sync.Mutex
	closed         bool
	seq            int64   // last event sequence number
	draftSeq       int64   // last draft number
	events         []Event // ring of the last EventBuffer events
	subs           map[int]chan Event
	nextSub        int
	latest         *draft // pending draft, replaced latest-wins
	inflightCancel context.CancelFunc
	lastActive     time.Time
	bucket         *bucket
}

func newSession(m *Manager, id, userID, labID string, dialect minicuda.Dialect, now time.Time) *Session {
	s := &Session{
		ID:         id,
		UserID:     userID,
		LabID:      labID,
		Dialect:    dialect,
		m:          m,
		notify:     make(chan struct{}, 1),
		inc:        kernelcheck.NewIncremental(),
		subs:       map[int]chan Event{},
		lastActive: now,
		bucket:     newBucket(m.cfg.DraftBurst, m.cfg.DraftInterval, now),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// PushDraft queues a source revision for analysis. Drafts are coalesced
// latest-wins: a push while another draft waits replaces it (coalesced =
// true), and a push while an analysis is in flight cancels that stale
// analysis. Returns the draft sequence number.
func (s *Session) PushDraft(source string) (seq int64, coalesced bool, err error) {
	now := s.m.now()
	if !s.m.allowUser(s.UserID, now) {
		s.m.cfg.Metrics.Inc("devsession_rate_limited", 1)
		return 0, false, ErrRateLimited
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, false, ErrClosed
	}
	if !s.bucket.allow(now) {
		s.mu.Unlock()
		s.m.cfg.Metrics.Inc("devsession_rate_limited", 1)
		return 0, false, ErrRateLimited
	}
	s.lastActive = now
	s.draftSeq++
	d := &draft{seq: s.draftSeq, source: source, queuedAt: now}
	coalesced = s.latest != nil
	s.latest = d
	stale := s.inflightCancel
	s.mu.Unlock()

	s.m.cfg.Metrics.Inc("devsession_drafts", 1)
	if coalesced {
		s.m.cfg.Metrics.Inc("devsession_draft_coalesced", 1)
	}
	if stale != nil {
		// Latest-draft-wins: the analysis running right now is for source
		// the student has already replaced.
		stale()
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return d.seq, coalesced, nil
}

// Subscribe attaches an event listener. Events already buffered with
// Seq > afterSeq are returned for replay (the Last-Event-ID contract);
// later events arrive on the channel, which closes when the session does
// or when the subscriber falls too far behind (reconnect to resume).
// The returned cancel is idempotent; dropping the last subscriber cancels
// any in-flight analysis and discards the pending draft.
func (s *Session) Subscribe(afterSeq int64) (replay []Event, ch <-chan Event, cancel func(), err error) {
	now := s.m.now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, nil, ErrClosed
	}
	s.lastActive = now
	id := s.nextSub
	s.nextSub++
	c := make(chan Event, s.m.cfg.EventBuffer)
	s.subs[id] = c
	for _, ev := range s.events {
		if ev.Seq > afterSeq {
			replay = append(replay, ev)
		}
	}
	s.mu.Unlock()

	cancel = func() {
		s.mu.Lock()
		cur, ok := s.subs[id]
		if ok {
			delete(s.subs, id)
		}
		s.lastActive = s.m.now()
		var stale context.CancelFunc
		if len(s.subs) == 0 && !s.closed {
			// Nobody is listening: stop the in-flight analysis and drop
			// the pending draft rather than burn compute for an empty room.
			stale = s.inflightCancel
			s.latest = nil
		}
		s.mu.Unlock()
		if ok {
			close(cur)
		}
		if stale != nil {
			stale()
		}
	}
	return replay, c, cancel, nil
}

// History returns the buffered events with Seq > afterSeq (newest last).
func (s *Session) History(afterSeq int64) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	for _, ev := range s.events {
		if ev.Seq > afterSeq {
			out = append(out, ev)
		}
	}
	return out
}

// Subscribers reports the number of attached listeners.
func (s *Session) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// idleSince reports how long the session has been idle; a session with a
// live subscriber is never idle.
func (s *Session) idleSince(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.subs) > 0 {
		return 0
	}
	return now.Sub(s.lastActive)
}

// emit appends an event to the ring and fans it out. A subscriber whose
// channel is full is kicked (channel closed) — the SSE layer reconnects
// with Last-Event-ID and replays from the ring instead of blocking the
// analysis loop on a slow reader.
func (s *Session) emit(typ string, data interface{}) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.seq++
	ev := Event{Seq: s.seq, Type: typ, At: s.m.now(), Data: data}
	s.events = append(s.events, ev)
	if n := len(s.events) - s.m.cfg.EventBuffer; n > 0 {
		s.events = append(s.events[:0], s.events[n:]...)
	}
	var kicked []chan Event
	for id, c := range s.subs {
		select {
		case c <- ev:
		default:
			delete(s.subs, id)
			kicked = append(kicked, c)
		}
	}
	s.mu.Unlock()
	for _, c := range kicked {
		close(c)
	}
}

// close tears the session down: cancels the loop and any in-flight
// analysis, and closes every subscriber channel. Idempotent.
func (s *Session) close(reason string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	// Record the terminal event in the ring before flipping closed, so a
	// client that reconnects (to a dead session) at least sees why.
	s.seq++
	ev := Event{Seq: s.seq, Type: EventStatus, At: s.m.now(), Data: StatusPayload{State: reason}}
	s.events = append(s.events, ev)
	for id, c := range s.subs {
		select {
		case c <- ev:
		default:
		}
		delete(s.subs, id)
		defer close(c)
	}
	s.closed = true
	s.latest = nil
	s.mu.Unlock()
	s.cancel()
}

// loop is the per-session analysis worker: one draft signal → one
// latest-wins pickup. Debounce is the minimum spacing between two pickups,
// measured from the previous pickup: the timer is armed when a draft is
// picked up and drained before the next one is. A draft that lands in a
// session whose last pickup is a window old (a client-debounced edit, the
// first draft) is therefore picked up at once — the leading edge — and a
// draft that lands inside the window waits for the window's remainder,
// with everything pushed meanwhile coalescing into that one trailing
// pickup. Two bounds hold, the same two a sleep after every draft gave:
//
//   - a session starts at most one analysis per window;
//   - no draft waits longer than one window before it is picked up or
//     replaced by a newer one.
//
// What the leading edge costs is that a keystroke burst into a quiet
// session is analyzed twice, its first draft and its latest, not once.
func (s *Session) loop() {
	window := s.m.cfg.Debounce
	var timer *time.Timer // armed at each pickup; nil until the first
	armed := false        // timer.C not drained since the last pickup
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.notify:
		}
		pickup := "leading"
		if armed {
			select {
			case <-timer.C: // the window was over before this draft came
			default:
				pickup = "trailing"
				select {
				case <-s.ctx.Done():
					return
				case <-timer.C:
				}
			}
			armed = false
		}
		s.mu.Lock()
		d := s.latest
		s.latest = nil
		if d == nil {
			// A wake-up whose draft an earlier pickup already took, or an
			// unsubscribe dropped. Nothing was picked up, so the timer
			// stays unarmed and the next draft is a leading pickup.
			s.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(s.ctx)
		s.inflightCancel = cancel
		s.mu.Unlock()
		if window > 0 {
			if timer == nil {
				timer = time.NewTimer(window)
			} else {
				timer.Reset(window) // drained above, so no stale tick
			}
			armed = true
		}

		s.runDraft(ctx, d, pickup)

		s.mu.Lock()
		s.inflightCancel = nil
		s.mu.Unlock()
		cancel()
	}
}

// ms is a duration in the payloads' unit, fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pipelineOut is what one draft's compile+analysis produces.
type pipelineOut struct {
	status   progcache.Status
	err      error
	diags    []kernelcheck.Diagnostic
	analyzed int
	reused   int
}

// runDraft runs one draft through the program cache: compile (content
// addressed, singleflighted) then kernelcheck through the session's
// incremental engine — only functions the student actually changed
// since the previous draft are re-analyzed, the rest splice from the
// per-session cache. A source the shared cache has already analyzed
// (a revert, or another student's identical draft) skips even that and
// reports every function reused; a fresh incremental result seeds the
// shared cache so a later submission of the same source is a pure hit
// (sound because the incremental output is byte-identical to a full
// run). The cache calls are not context-aware, so they run in a
// goroutine and the draft abandons the wait on cancellation — the
// compile keeps going and still warms the cache for the next draft or
// an eventual submission.
func (s *Session) runDraft(ctx context.Context, d *draft, pickup string) {
	start := s.m.now()
	// Push → pickup: what the draft spent behind the spacing window (and
	// the loop's wake-up). The elapsed_ms figures start here and hide it.
	waited := start.Sub(d.queuedAt)
	waitedMS := ms(waited)
	s.m.cfg.Metrics.Inc("devsession_pickups_"+pickup, 1)
	s.m.cfg.Metrics.ObserveDuration("devsession_pickup_wait_ms", waited)
	tr := s.m.cfg.Traces.NewTrace()
	sp := tr.StartSpan("draft",
		"session", s.ID, "lab", s.LabID, "draft", strconv.FormatInt(d.seq, 10),
		"pickup", pickup, "waited_ms", strconv.FormatFloat(waitedMS, 'f', 3, 64))
	done := make(chan pipelineOut, 1)
	go func() {
		var out pipelineOut
		var prog *minicuda.Program
		prog, out.status, out.err = s.m.cfg.Cache.CompileStatus(d.source, s.Dialect)
		if out.err == nil {
			if diags, ok := s.m.cfg.Cache.CachedDiagnostics(d.source, s.Dialect); ok {
				out.diags = diags
				out.reused = len(prog.Funcs)
			} else {
				res := s.inc.Analyze(prog)
				out.diags = res.Diagnostics
				out.analyzed, out.reused = res.Analyzed, res.Reused
				s.m.cfg.Cache.PutDiagnostics(d.source, s.Dialect, res.Diagnostics)
			}
		}
		done <- out
	}()

	select {
	case <-ctx.Done():
		s.m.cfg.Metrics.Inc("devsession_draft_cancelled", 1)
		sp.EndAttrs("cancelled", "true")
		tr.Finish()
		s.emit(EventStatus, StatusPayload{State: "cancelled", Draft: d.seq})
		return
	case out := <-done:
		elapsed := s.m.now().Sub(start)
		compile := CompilePayload{Draft: d.seq, Cache: out.status.String(), OK: out.err == nil, WaitedMS: waitedMS, ElapsedMS: ms(elapsed)}
		if out.err != nil {
			compile.Error = out.err.Error()
		}
		s.emit(EventCompile, compile)
		if out.err == nil {
			diags := out.diags
			if diags == nil {
				diags = []kernelcheck.Diagnostic{}
			}
			s.emit(EventDiagnostics, DiagnosticsPayload{
				Draft:       d.seq,
				Diagnostics: diags,
				Analyzed:    out.analyzed,
				Reused:      out.reused,
				WaitedMS:    waitedMS,
				ElapsedMS:   ms(s.m.now().Sub(start)),
			})
			s.m.cfg.Metrics.Inc("kernelcheck_incremental_runs", 1)
			s.m.cfg.Metrics.Inc("kernelcheck_incremental_analyzed", float64(out.analyzed))
			s.m.cfg.Metrics.Inc("kernelcheck_incremental_reused", float64(out.reused))
		}
		s.m.cfg.Metrics.ObserveDuration("devsession_draft_ms", elapsed)
		if out.status == progcache.Hit {
			s.m.cfg.Metrics.ObserveDuration("devsession_draft_warm_ms", elapsed)
		}
		sp.EndAttrs("cache", out.status.String(), "diags", strconv.Itoa(len(out.diags)))
		tr.Finish()
	}
}
