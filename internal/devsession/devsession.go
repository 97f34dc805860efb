// Package devsession is WebGPU's live development loop: the session-scoped
// streaming compile+analysis service behind POST /api/v1/labs/{lab}/session.
// VSC-WebGPU had to screen-scrape the platform with Selenium because no
// programmatic incremental API existed; this package is the real thing.
//
// A session is one student editing one lab. The client pushes
// keystroke-debounced source drafts; each draft runs an incremental
// recompile plus kernelcheck analysis through the shared content-addressed
// program cache (unchanged source is a pure cache hit, and per-entry
// artifact reuse skips re-analysis), and the results stream back as typed
// events (compile, diagnostics, status) over a server-sent-event stream.
//
// The loop is built for a chatty many-small-requests workload the batch
// job pipeline cannot serve, so robustness is part of the design:
//
//   - Coalescing: drafts arriving faster than analysis are latest-wins.
//     A session picks drafts up at most once per debounce window: a draft
//     into a quiet session (the client-debounced edit) is analyzed at
//     once, the rest of a keystroke burst coalesces into one pickup when
//     the window closes, and a draft that arrives while an analysis is in
//     flight cancels the stale analysis.
//   - Rate limits: per-user and per-session token buckets bound how fast
//     any client can push drafts, independent of coalescing.
//   - Bounded registry: the manager holds at most MaxSessions sessions
//     (MaxPerUser per student) and evicts idle ones.
//   - Cancellation: a dropped event stream cancels the in-flight analysis
//     and drops the pending draft — no work runs for a client that left.
//
// Sessions emit devsession_* metrics and per-draft "draft" trace spans on
// the shared registries.
package devsession

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"webgpu/internal/metrics"
	"webgpu/internal/minicuda"
	"webgpu/internal/progcache"
	"webgpu/internal/trace"
)

// Errors.
var (
	// ErrSessionLimit means the deployment-wide session bound is reached.
	ErrSessionLimit = errors.New("devsession: too many live sessions, retry later")
	// ErrUserSessionLimit means this user already holds MaxPerUser sessions.
	ErrUserSessionLimit = errors.New("devsession: per-user session limit reached")
	// ErrRateLimited means a draft push exceeded the user or session budget.
	ErrRateLimited = errors.New("devsession: draft rate limit exceeded")
	// ErrClosed means the session was closed or evicted.
	ErrClosed = errors.New("devsession: session closed")
)

// Defaults. Rate limits are tuned for a human typing with a client-side
// debounce (tens of drafts per second is already faster than any editor
// sends), and the registry bound is per process, not per course.
const (
	DefaultMaxSessions   = 1024
	DefaultMaxPerUser    = 4
	DefaultIdleTimeout   = 10 * time.Minute
	DefaultDebounce      = 20 * time.Millisecond
	DefaultEventBuffer   = 256
	DefaultDraftBurst    = 30
	DefaultDraftInterval = 50 * time.Millisecond // sustained 20 drafts/s
)

// Config wires a Manager's dependencies and tuning knobs.
type Config struct {
	// Cache is the content-addressed program cache drafts compile and
	// analyze through; nil creates a private one. Deployments pass the
	// cache their workers share so a draft a student later submits is
	// already warm.
	Cache *progcache.Cache
	// Metrics receives devsession_* counters and histograms (nil: private).
	Metrics *metrics.Registry
	// Traces records one trace per analyzed draft (nil: private ring).
	Traces *trace.Store
	// Clock is the time source for rate limits and idle eviction (tests).
	Clock func() time.Time

	// MaxSessions bounds the registry deployment-wide; MaxPerUser bounds
	// one student's sessions. Zero means the default; negative disables.
	MaxSessions int
	MaxPerUser  int
	// IdleTimeout evicts sessions with no drafts and no subscribers.
	IdleTimeout time.Duration
	// Debounce is the minimum spacing between two draft pickups of one
	// session, measured from the previous pickup: a draft arriving later
	// than that is picked up at once, one arriving inside the window waits
	// for its remainder, and a keystroke burst coalesces into that one
	// trailing pickup. Negative disables (every draft is picked up at once).
	Debounce time.Duration
	// EventBuffer is the per-session ring (and per-subscriber channel)
	// depth backing Last-Event-ID resume.
	EventBuffer int
	// DraftBurst/DraftInterval shape the per-user and per-session token
	// buckets: a bucket holds DraftBurst tokens and refills one every
	// DraftInterval. Zero means the default; negative disables rate
	// limiting.
	DraftBurst    int
	DraftInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Cache == nil {
		c.Cache = progcache.New(progcache.DefaultCapacity, nil)
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Traces == nil {
		c.Traces = trace.NewStore(0)
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.MaxPerUser == 0 {
		c.MaxPerUser = DefaultMaxPerUser
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.Debounce == 0 {
		c.Debounce = DefaultDebounce
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = DefaultEventBuffer
	}
	if c.DraftBurst <= 0 {
		c.DraftBurst = DefaultDraftBurst
	}
	if c.DraftInterval == 0 {
		c.DraftInterval = DefaultDraftInterval
	}
	return c
}

// Manager is the bounded registry of live development sessions.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	perUser  map[string]int
	buckets  map[string]*bucket // per-user draft budgets
	swept    time.Time          // when buckets was last swept
	closed   bool
}

// NewManager builds a manager from the config (zero fields take defaults).
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		sessions: map[string]*Session{},
		perUser:  map[string]int{},
		buckets:  map[string]*bucket{},
	}
	// Register the series at zero so dashboards scraping a fresh server
	// see the whole devsession_* set, not counters popping in on first use.
	for _, name := range []string{
		"devsession_opened", "devsession_closed", "devsession_evicted",
		"devsession_drafts", "devsession_draft_coalesced",
		"devsession_draft_cancelled", "devsession_rate_limited",
		"devsession_pickups_leading", "devsession_pickups_trailing",
		"kernelcheck_incremental_runs", "kernelcheck_incremental_analyzed",
		"kernelcheck_incremental_reused",
	} {
		m.cfg.Metrics.Inc(name, 0)
	}
	m.cfg.Metrics.Set("devsession_active", 0)
	return m
}

// Open creates a session for (userID, labID), evicting idle sessions
// first. The returned session is live: its draft loop is running.
func (m *Manager) Open(userID, labID string, dialect minicuda.Dialect) (*Session, error) {
	now := m.cfg.Clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.sweepLocked(now)
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		return nil, ErrSessionLimit
	}
	if m.cfg.MaxPerUser > 0 && m.perUser[userID] >= m.cfg.MaxPerUser {
		return nil, ErrUserSessionLimit
	}
	s := newSession(m, newSessionID(), userID, labID, dialect, now)
	m.sessions[s.ID] = s
	m.perUser[userID]++
	m.cfg.Metrics.Inc("devsession_opened", 1)
	m.cfg.Metrics.Set("devsession_active", float64(len(m.sessions)))
	go s.loop()
	s.emit(EventStatus, StatusPayload{State: "open"})
	return s, nil
}

// Get returns the session with the given ID, or nil.
func (m *Manager) Get(id string) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessions[id]
}

// Active reports the number of live sessions.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Close closes one session by ID (no-op on unknown IDs).
func (m *Manager) Close(id string) {
	m.mu.Lock()
	s := m.sessions[id]
	if s != nil {
		m.dropLocked(s, "closed")
	}
	m.mu.Unlock()
	if s != nil {
		s.close("closed")
	}
}

// CloseAll closes every session and refuses new ones (shutdown).
func (m *Manager) CloseAll() {
	m.mu.Lock()
	m.closed = true
	all := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
		m.dropLocked(s, "closed")
	}
	m.mu.Unlock()
	for _, s := range all {
		s.close("closed")
	}
}

// Sweep evicts idle sessions now (also runs on every Open).
func (m *Manager) Sweep() {
	now := m.cfg.Clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(now)
}

// sweepLocked evicts sessions idle past the timeout with no subscribers.
func (m *Manager) sweepLocked(now time.Time) {
	if m.cfg.IdleTimeout <= 0 {
		return
	}
	for _, s := range m.sessions {
		if s.idleSince(now) > m.cfg.IdleTimeout {
			m.dropLocked(s, "evicted")
			// close must not run under m.mu (it takes s.mu and closes
			// subscriber channels); an evicted session has none anyway.
			go s.close("evicted")
		}
	}
}

// dropLocked removes a session from the registry and updates the gauges.
// Callers still close the session outside the lock.
func (m *Manager) dropLocked(s *Session, reason string) {
	if _, ok := m.sessions[s.ID]; !ok {
		return
	}
	delete(m.sessions, s.ID)
	if m.perUser[s.UserID]--; m.perUser[s.UserID] <= 0 {
		delete(m.perUser, s.UserID)
	}
	if reason == "evicted" {
		m.cfg.Metrics.Inc("devsession_evicted", 1)
	}
	m.cfg.Metrics.Inc("devsession_closed", 1)
	m.cfg.Metrics.Set("devsession_active", float64(len(m.sessions)))
}

// allowUser charges one draft against the user's token bucket.
func (m *Manager) allowUser(userID string, now time.Time) bool {
	if m.cfg.DraftInterval <= 0 {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b := m.buckets[userID]
	if b == nil {
		refill := time.Duration(m.cfg.DraftBurst) * m.cfg.DraftInterval
		if len(m.buckets) >= maxUserBuckets && now.Sub(m.swept) >= refill {
			m.swept = now
			for u, old := range m.buckets {
				if old.level(now) >= old.burst {
					delete(m.buckets, u)
				}
			}
		}
		b = newBucket(m.cfg.DraftBurst, m.cfg.DraftInterval, now)
		m.buckets[userID] = b
	}
	return b.allow(now)
}

// maxUserBuckets bounds the per-user bucket map: past it, buckets that
// have refilled to their burst are swept, at most once per refill time.
// A full bucket is indistinguishable from a fresh one, so the sweep is
// lossless (the rule overload applies to its tenant buckets).
const maxUserBuckets = 16384

func (m *Manager) now() time.Time { return m.cfg.Clock() }

// bucket is a deterministic token bucket driven by the manager's clock.
type bucket struct {
	tokens   float64
	burst    float64
	interval time.Duration // time to refill one token
	last     time.Time
}

func newBucket(burst int, interval time.Duration, now time.Time) *bucket {
	return &bucket{tokens: float64(burst), burst: float64(burst), interval: interval, last: now}
}

func (b *bucket) allow(now time.Time) bool {
	if b.interval <= 0 {
		return true
	}
	b.tokens, b.last = b.level(now), now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// level is the token count at now; it does not advance the bucket.
func (b *bucket) level(now time.Time) float64 {
	dt := now.Sub(b.last)
	if dt <= 0 {
		return b.tokens
	}
	return min(b.burst, b.tokens+float64(dt)/float64(b.interval))
}

func newSessionID() string {
	buf := make([]byte, 8)
	if _, err := rand.Read(buf); err != nil {
		panic(err)
	}
	return "ds-" + hex.EncodeToString(buf)
}
