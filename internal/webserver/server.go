// Package webserver implements WebGPU's web tier (§III-A, §IV): the HTTP
// interface through which students edit, compile, run, and submit lab
// code and instructors manage the roster and grades. It persists every
// code save (the History view), every attempt (the Attempts view), and
// all grades in the database, dispatches compilation/execution jobs to
// the worker tier through a pluggable dispatcher (push in v1, broker in
// v2), and enforces the submission rate limits of §III-C.
package webserver

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webgpu/internal/castore"
	"webgpu/internal/db"
	"webgpu/internal/devsession"
	"webgpu/internal/grader"
	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/metrics"
	"webgpu/internal/overload"
	"webgpu/internal/peerreview"
	"webgpu/internal/progcache"
	"webgpu/internal/queue"
	"webgpu/internal/sandbox"
	"webgpu/internal/trace"
	"webgpu/internal/worker"
)

// Dispatcher sends a job to the worker tier and waits for its result;
// v1 pushes to a registry, v2 publishes to the broker. The context
// carries the request's trace and its cancellation: when the student
// disconnects or a deadline passes, the worker tier stops launching
// further datasets instead of burning simulated-GPU time.
type Dispatcher interface {
	Dispatch(ctx context.Context, job *worker.Job) (*worker.Result, error)
}

// DispatcherFunc adapts a function to the Dispatcher interface.
type DispatcherFunc func(ctx context.Context, job *worker.Job) (*worker.Result, error)

// Dispatch implements Dispatcher.
func (f DispatcherFunc) Dispatch(ctx context.Context, job *worker.Job) (*worker.Result, error) {
	return f(ctx, job)
}

// QueueAdmin is the slice of the broker the admin API needs: inspecting
// and redriving dead letters. v1 deployments have no broker and leave it
// nil, which renders the endpoints as 501s.
type QueueAdmin interface {
	DeadLetters() []*queue.Message
	RedriveDeadLetters() int
}

// Config wires a server's dependencies.
type Config struct {
	DB         *db.DB
	Dispatcher Dispatcher
	Gradebook  grader.Gradebook
	Reviews    *peerreview.Store
	Course     labs.Course
	Limits     sandbox.Limits
	Clock      func() time.Time

	// Metrics is the shared registry /api/v1/admin/metrics dumps; nil
	// creates a private one. Traces is the ring of recent job traces
	// behind /api/v1/admin/traces; nil creates one with default capacity.
	Metrics *metrics.Registry
	Traces  *trace.Store

	// Queue backs the dead-letter admin endpoints (v2 only; nil = 501).
	Queue QueueAdmin

	// ProgCache backs the live development loop's incremental compiles.
	// Deployments pass the cache their workers share, so a draft the
	// student later submits is already compiled and analyzed; nil creates
	// a private cache.
	ProgCache *progcache.Cache

	// Artifacts is the durable artifact store under ProgCache, reported
	// as a /healthz component; nil reports it absent (memory-only cache).
	Artifacts *castore.Store

	// DevSessions overrides the live-session manager (tests tune its
	// debounce/limits); nil builds one from ProgCache/Metrics/Traces/Clock
	// (with overload pressure wired so drafts shed before submissions).
	DevSessions *devsession.Manager

	// Overload is the admission controller every classed route passes
	// through: priority-class load shedding (submissions > drafts >
	// reads), per-tenant rate limits, and burn-rate SLOs. Nil builds one
	// with the default (generous) limits on the shared Metrics/Clock.
	Overload *overload.Controller

	// SSEHeartbeat is the interval between keepalive comments on event
	// streams (0 = 15s).
	SSEHeartbeat time.Duration
}

// Server is the WebGPU web tier.
type Server struct {
	db           *db.DB
	dispatch     Dispatcher
	gradebook    grader.Gradebook
	reviews      *peerreview.Store
	course       labs.Course
	limiter      *sandbox.RateLimiter
	clock        func() time.Time
	mux          *http.ServeMux
	nextID       atomic.Int64
	deadlines    map[string]time.Time
	metrics      *metrics.Registry
	traces       *trace.Store
	queue        QueueAdmin
	progs        *progcache.Cache
	artifacts    *castore.Store
	devsessions  *devsession.Manager
	overload     *overload.Controller
	sseHeartbeat time.Duration

	// policies maps lab ID → analysis policy (worker.Analysis*). Unlike
	// deadlines (set once at course setup), instructors flip these at
	// runtime through the API, so access is mutex-guarded.
	polMu    sync.RWMutex
	policies map[string]string
}

// New builds a server.
func New(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Limits.SubmitInterval == 0 {
		cfg.Limits = sandbox.DefaultLimits()
	}
	if cfg.Reviews == nil {
		cfg.Reviews = peerreview.NewStore(0)
	}
	if cfg.Course == "" {
		cfg.Course = labs.CourseHPP
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Traces == nil {
		cfg.Traces = trace.NewStore(0)
	}
	if cfg.ProgCache == nil {
		cfg.ProgCache = progcache.New(progcache.DefaultCapacity, nil)
	}
	if cfg.Overload == nil {
		cfg.Overload = overload.New(overload.Config{
			Clock:   cfg.Clock,
			Metrics: cfg.Metrics,
		})
	}
	if cfg.DevSessions == nil {
		cfg.DevSessions = devsession.NewManager(devsession.Config{
			Cache:   cfg.ProgCache,
			Metrics: cfg.Metrics,
			Traces:  cfg.Traces,
			Clock:   cfg.Clock,
		})
	}
	if cfg.SSEHeartbeat <= 0 {
		cfg.SSEHeartbeat = 15 * time.Second
	}
	s := &Server{
		db:           cfg.DB,
		dispatch:     cfg.Dispatcher,
		gradebook:    cfg.Gradebook,
		reviews:      cfg.Reviews,
		course:       cfg.Course,
		limiter:      sandbox.NewRateLimiter(cfg.Limits.SubmitInterval),
		clock:        cfg.Clock,
		deadlines:    map[string]time.Time{},
		policies:     map[string]string{},
		metrics:      cfg.Metrics,
		traces:       cfg.Traces,
		queue:        cfg.Queue,
		progs:        cfg.ProgCache,
		artifacts:    cfg.Artifacts,
		devsessions:  cfg.DevSessions,
		overload:     cfg.Overload,
		sseHeartbeat: cfg.SSEHeartbeat,
	}
	// Live sessions are a backpressure signal: a wall of open draft loops
	// raises pressure, which sheds reads first, then drafts themselves.
	s.overload.SetDraftLoad(s.devsessions.Active)
	s.limiter.SetClock(cfg.Clock)
	s.routes()
	return s
}

// SetDeadline configures a lab's deadline; attempts may be shared publicly
// only after it passes (§IV-B), and submissions after it are flagged.
func (s *Server) SetDeadline(labID string, t time.Time) { s.deadlines[labID] = t }

// SetAnalysisPolicy configures what the worker does with static-analysis
// findings for a lab's jobs: worker.AnalysisWarn (the default — attach
// diagnostics, never block), worker.AnalysisFailFast (provable bugs
// block execution), or worker.AnalysisOff. An empty policy resets the
// lab to the default.
func (s *Server) SetAnalysisPolicy(labID, policy string) error {
	if !worker.ValidAnalysisPolicy(policy) {
		return fmt.Errorf("webserver: unknown analysis policy %q (want %q, %q, or %q)",
			policy, worker.AnalysisWarn, worker.AnalysisFailFast, worker.AnalysisOff)
	}
	s.polMu.Lock()
	defer s.polMu.Unlock()
	if policy == "" {
		delete(s.policies, labID)
		return nil
	}
	s.policies[labID] = policy
	return nil
}

// AnalysisPolicy reports a lab's configured analysis policy (the warn
// default when unset).
func (s *Server) AnalysisPolicy(labID string) string {
	s.polMu.RLock()
	defer s.polMu.RUnlock()
	if p, ok := s.policies[labID]; ok {
		return p
	}
	return worker.AnalysisWarn
}

// SetClock replaces the server's time source (tests).
func (s *Server) SetClock(clock func() time.Time) {
	s.clock = clock
	s.limiter.SetClock(clock)
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// DevSessions exposes the live-session manager (deployments close it on
// shutdown; tests inspect it).
func (s *Server) DevSessions() *devsession.Manager { return s.devsessions }

// Overload exposes the admission controller (deployments wire its
// backpressure signals; tests inspect its counters).
func (s *Server) Overload() *overload.Controller { return s.overload }

// APIVersionHeader names the response header stamping which API version
// served the request ("v1").
const APIVersionHeader = "X-WebGPU-API-Version"

// apiRoute is one entry of the API route table. Pattern is the path under
// the API prefix: the handler is mounted at /api/v1/<pattern>.
type apiRoute struct {
	Method  string
	Pattern string
	handler http.HandlerFunc
}

// apiRoutes is the single route table the API surface is generated from.
// Adding a route here mounts it under /api/v1 and enrolls it in the
// route-conformance tests.
func (s *Server) apiRoutes() []apiRoute {
	return []apiRoute{
		{Method: "POST", Pattern: "register", handler: s.handleRegister},
		{Method: "POST", Pattern: "login", handler: s.handleLogin},
		{Method: "GET", Pattern: "labs", handler: s.auth(s.handleListLabs)},
		{Method: "GET", Pattern: "labs/{lab}", handler: s.auth(s.handleGetLab)},
		{Method: "POST", Pattern: "labs/{lab}/save", handler: s.auth(s.handleSave)},
		{Method: "GET", Pattern: "labs/{lab}/code", handler: s.auth(s.handleGetCode)},
		{Method: "GET", Pattern: "labs/{lab}/history", handler: s.auth(s.classed(overload.ClassRead, s.handleHistory))},
		{Method: "POST", Pattern: "labs/{lab}/compile", handler: s.auth(s.classed(overload.ClassSubmission, s.handleCompile))},
		{Method: "POST", Pattern: "labs/{lab}/attempt", handler: s.auth(s.classed(overload.ClassSubmission, s.handleAttempt))},
		{Method: "GET", Pattern: "labs/{lab}/attempts", handler: s.auth(s.classed(overload.ClassRead, s.handleAttempts))},
		{Method: "POST", Pattern: "labs/{lab}/questions", handler: s.auth(s.handleAnswerQuestions)},
		{Method: "POST", Pattern: "labs/{lab}/submit", handler: s.auth(s.classed(overload.ClassSubmission, s.handleSubmit))},
		{Method: "GET", Pattern: "labs/{lab}/grade", handler: s.auth(s.classed(overload.ClassRead, s.handleGetGrade))},
		{Method: "GET", Pattern: "labs/{lab}/hints", handler: s.auth(s.handleHints)},
		{Method: "POST", Pattern: "attempts/{attempt}/share", handler: s.auth(s.handleShare)},
		{Method: "GET", Pattern: "share/{token}", handler: s.handleViewShare},
		{Method: "GET", Pattern: "reviews", handler: s.auth(s.classed(overload.ClassRead, s.handleMyReviews))},
		{Method: "POST", Pattern: "reviews/complete", handler: s.auth(s.classed(overload.ClassRead, s.handleCompleteReview))},
		{Method: "GET", Pattern: "instructor/roster/{lab}", handler: s.instructor(s.handleRoster)},
		{Method: "GET", Pattern: "instructor/student/{user}/{lab}", handler: s.instructor(s.handleStudentDetail)},
		{Method: "POST", Pattern: "instructor/override", handler: s.instructor(s.handleOverride)},
		{Method: "POST", Pattern: "instructor/comment", handler: s.instructor(s.handleComment)},
		{Method: "POST", Pattern: "instructor/reviews/assign/{lab}", handler: s.instructor(s.handleAssignReviews)},
		{Method: "POST", Pattern: "instructor/labs/{lab}/analysis", handler: s.instructor(s.handleSetAnalysisPolicy)},
		{Method: "GET", Pattern: "instructor/labs/{lab}/analysis", handler: s.instructor(s.handleGetAnalysisPolicy)},
		{Method: "GET", Pattern: "instructor/export", handler: s.instructor(s.handleExport)},
		{Method: "GET", Pattern: "admin/metrics", handler: s.instructor(s.handleAdminMetrics)},
		{Method: "GET", Pattern: "admin/traces", handler: s.instructor(s.handleAdminTraces)},
		{Method: "GET", Pattern: "admin/traces/{id}", handler: s.instructor(s.handleAdminTrace)},
		{Method: "GET", Pattern: "admin/deadletters", handler: s.instructor(s.handleAdminDeadLetters)},
		{Method: "POST", Pattern: "admin/deadletters/redrive", handler: s.instructor(s.handleAdminRedrive)},

		// Live development loop.
		{Method: "POST", Pattern: "labs/{lab}/session", handler: s.auth(s.handleOpenSession)},
		{Method: "GET", Pattern: "sessions/{id}/events", handler: s.auth(s.handleSessionEvents)},
		{Method: "POST", Pattern: "sessions/{id}/draft", handler: s.auth(s.classed(overload.ClassDraft, s.handleSessionDraft))},
		{Method: "DELETE", Pattern: "sessions/{id}", handler: s.auth(s.handleCloseSession)},
	}
}

// versioned stamps the API-version header.
func versioned(version string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(APIVersionHeader, version)
		h(w, r)
	}
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	for _, rt := range s.apiRoutes() {
		s.mux.HandleFunc(rt.Method+" /api/v1/"+rt.Pattern, versioned("v1", rt.handler))
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /labs/{lab}/view", s.auth(s.handleLabPage))
}

// ComponentHealth is one subsystem's line in the /healthz report.
type ComponentHealth struct {
	Status string `json:"status"` // ok | degraded | absent
	Detail string `json:"detail,omitempty"`
}

// handleHealthz reports per-component health as JSON: the database, the
// dispatcher, the broker (absent on v1 push deployments), the program
// cache, and the live-session registry. Any degraded component turns the
// top-level status degraded and the HTTP status 503, so load balancers
// and probes need only the status code.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	comps := map[string]ComponentHealth{}
	degraded := false
	mark := func(name string, c ComponentHealth) {
		if c.Status == "degraded" {
			degraded = true
		}
		comps[name] = c
	}

	if s.db == nil {
		mark("db", ComponentHealth{Status: "degraded", Detail: "not configured"})
	} else if err := s.db.View(func(tx *db.Tx) error { return nil }); err != nil {
		mark("db", ComponentHealth{Status: "degraded", Detail: err.Error()})
	} else {
		mark("db", ComponentHealth{Status: "ok"})
	}

	if s.dispatch == nil {
		mark("dispatcher", ComponentHealth{Status: "degraded", Detail: "no worker dispatcher"})
	} else {
		mark("dispatcher", ComponentHealth{Status: "ok"})
	}

	if s.queue == nil {
		mark("broker", ComponentHealth{Status: "absent", Detail: "v1 push dispatch has no broker"})
	} else {
		mark("broker", ComponentHealth{Status: "ok",
			Detail: fmt.Sprintf("%d dead letters", len(s.queue.DeadLetters()))})
	}

	st := s.progs.Stats()
	mark("progcache", ComponentHealth{Status: "ok",
		Detail: fmt.Sprintf("%d entries, %d hits, %d misses", st.Size, st.Hits, st.Misses)})

	// Durable artifact tier: absent is normal for memory-only
	// deployments; degraded means quarantined corruption or a full disk —
	// both survivable (entries recompile) but worth an operator's look.
	castatus, cadetail := s.artifacts.Health()
	mark("castore", ComponentHealth{Status: castatus, Detail: cadetail})

	mark("devsessions", ComponentHealth{Status: "ok",
		Detail: fmt.Sprintf("%d active", s.devsessions.Active())})

	// Overload: degraded when the submission class is burning its fast
	// error budget faster than 1× — the signal pagers alert on. Reads and
	// drafts shedding is the system working as designed, not ill health.
	slos := s.overload.SLOStatuses()
	oh := ComponentHealth{Status: "ok",
		Detail: fmt.Sprintf("pressure %.2f", s.overload.Pressure())}
	for _, st := range slos {
		if st.Class == overload.ClassSubmission && st.FastBurn > 1 {
			oh = ComponentHealth{Status: "degraded",
				Detail: fmt.Sprintf("submission fast burn %.1f× budget", st.FastBurn)}
		}
	}
	mark("overload", oh)

	status := "ok"
	code := http.StatusOK
	if degraded {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]interface{}{
		"status":     status,
		"components": comps,
		"slo":        slos,
	})
}

// ---- Records ------------------------------------------------------------------
//
// CodeRec, AttemptRec, SubmissionRec and CommentRec (and grader.Grade) have
// one encoding: the bytes tx.Put marshals are the bytes the history,
// attempts, grade and student-view responses carry (servePage,
// rawRecords) — no handler decodes a row in order to list it. These
// structs are therefore the API representation; a field that must not be
// served does not belong in them.

// User is a registered account.
type User struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Email  string `json:"email"`
	Role   string `json:"role"` // "student" or "instructor"
	Joined string `json:"joined"`
}

type sessionRec struct {
	Token  string `json:"token"`
	UserID string `json:"user_id"`
}

// usersByEmail is login's index: the key is the e-mail itself (an exact
// Get, so no separator an address could contain), the row names the user.
// It is written in the register transaction.
const usersByEmail = "users_by_email"

type emailRef struct {
	ID string `json:"id"`
}

// CodeRec is the current editor contents for (user, lab).
type CodeRec struct {
	UserID  string    `json:"user_id"`
	LabID   string    `json:"lab_id"`
	Source  string    `json:"source"`
	Rev     int       `json:"rev"`
	SavedAt time.Time `json:"saved_at"`
}

// AttemptRec is one compile or dataset run (the Attempts view).
type AttemptRec struct {
	ID        string        `json:"id"`
	UserID    string        `json:"user_id"`
	LabID     string        `json:"lab_id"`
	DatasetID int           `json:"dataset_id"`
	Source    string        `json:"source"`
	Outcome   *labs.Outcome `json:"outcome"`
	At        time.Time     `json:"at"`
	Shared    bool          `json:"shared,omitempty"`
	ShareTok  string        `json:"share_token,omitempty"`
	TraceID   string        `json:"trace_id,omitempty"`

	// Diagnostics are the static-analyzer findings for the attempted
	// source, so the Attempts view can show them next to the outcome.
	Diagnostics []kernelcheck.Diagnostic `json:"diagnostics,omitempty"`
}

// SubmissionRec is a final graded submission.
type SubmissionRec struct {
	ID       string          `json:"id"`
	UserID   string          `json:"user_id"`
	LabID    string          `json:"lab_id"`
	Source   string          `json:"source"`
	Outcomes []*labs.Outcome `json:"outcomes"`
	Grade    *grader.Grade   `json:"grade"`
	Late     bool            `json:"late,omitempty"`
	At       time.Time       `json:"at"`
	TraceID  string          `json:"trace_id,omitempty"`

	// Diagnostics are the static-analyzer findings for the submitted
	// source; AnalysisBlocked marks a fail-fast submission the analyzer
	// stopped before execution.
	Diagnostics     []kernelcheck.Diagnostic `json:"diagnostics,omitempty"`
	AnalysisBlocked bool                     `json:"analysis_blocked,omitempty"`
}

// AnswersRec stores short-answer responses (§IV-A action 4).
type AnswersRec struct {
	UserID  string    `json:"user_id"`
	LabID   string    `json:"lab_id"`
	Answers []string  `json:"answers"`
	At      time.Time `json:"at"`
}

// CommentRec is an instructor comment on a student's lab (§IV-F).
type CommentRec struct {
	ID         string    `json:"id"`
	UserID     string    `json:"user_id"`
	LabID      string    `json:"lab_id"`
	Instructor string    `json:"instructor"`
	Text       string    `json:"text"`
	At         time.Time `json:"at"`
}

// ---- Helpers ------------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Stable machine-readable error codes: clients switch on these, the
// human-readable message may change freely.
const (
	ErrCodeBadRequest        = "bad_request"
	ErrCodeBadDataset        = "bad_dataset"
	ErrCodeUnauthorized      = "unauthorized"
	ErrCodeForbidden         = "forbidden"
	ErrCodeNotFound          = "not_found"
	ErrCodeConflict          = "conflict"
	ErrCodeRateLimited       = "rate_limited"
	ErrCodeOverloaded        = "overloaded"
	ErrCodeWorkerUnavailable = "worker_unavailable"
	ErrCodeInternal          = "internal"
	ErrCodeNotImplemented    = "not_implemented"
)

// ErrorBody is the unified error envelope every handler returns:
// {"error":{"code":"...","message":"..."}}.
type ErrorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// writeErr renders the unified error envelope with a stable machine code.
func writeErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	var body ErrorBody
	body.Error.Code = code
	body.Error.Message = fmt.Sprintf(format, args...)
	writeJSON(w, status, body)
}

// page describes limit/offset pagination parsed from the query string.
type page struct {
	Limit  int
	Offset int
}

// DefaultPageLimit bounds history/attempts responses when the client
// does not pass an explicit limit — the unbounded listings were a
// deadline-spike DoS on the web tier.
const DefaultPageLimit = 50

// parsePage reads limit/offset (strictly — a malformed value is a 400,
// not a silent default). Reports ok=false after writing the error.
func parsePage(w http.ResponseWriter, r *http.Request) (page, bool) {
	p := page{Limit: DefaultPageLimit}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "invalid limit %q", v)
			return p, false
		}
		p.Limit = n
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "invalid offset %q", v)
			return p, false
		}
		p.Offset = n
	}
	return p, true
}

// servePage answers one limit/offset page over the rows of a table named,
// in order, by keys(tx). The body is assembled inside the transaction
// from the rows' committed bytes (see Records): only the window is copied,
// the rest are counted, and a key whose row is missing (a dangling index
// row) is counted and skipped. The envelope is written by hand in the
// sorted-key order encoding/json gives a map, newline included.
func (s *Server) servePage(w http.ResponseWriter, table string, p page, keys func(tx *db.Tx) []string) {
	buf := pageBufs.Get().(*[]byte)
	body := (*buf)[:0]
	err := s.db.View(func(tx *db.Tx) error {
		ks := keys(tx)
		lo := min(p.Offset, len(ks))
		hi := len(ks)
		if p.Limit > 0 && lo+p.Limit < hi {
			hi = lo + p.Limit
		}
		body = append(body, `{"items":[`...)
		empty := len(body)
		for _, k := range ks[lo:hi] {
			mark := len(body)
			if mark > empty {
				body = append(body, ',')
			}
			row, err := tx.AppendRow(body, table, k)
			if err != nil {
				body = body[:mark]
				continue
			}
			body = row
		}
		body = append(body, `],"limit":`...)
		body = strconv.AppendInt(body, int64(p.Limit), 10)
		body = append(body, `,"offset":`...)
		body = strconv.AppendInt(body, int64(p.Offset), 10)
		body = append(body, `,"total":`...)
		body = strconv.AppendInt(body, int64(len(ks)), 10)
		body = append(body, "}\n"...)
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
	} else {
		writeBody(w, body)
	}
	if cap(body) <= maxPooledPage {
		*buf = body
		pageBufs.Put(buf)
	}
}

// pageBufs recycles servePage's buffers (Write has copied the body by the
// time it returns): a page is tens of kilobytes, and growing a fresh slice
// to that size on every request cost more than copying the rows — the
// Attempts handler on a 41 kB page measured 65–100 µs without, 25–32 with.
// A buffer that a page of huge sources grew past maxPooledPage is dropped.
var pageBufs = sync.Pool{New: func() interface{} { return new([]byte) }}

const maxPooledPage = 1 << 20

// writeBody sends a 200 whose body is already JSON, newline-terminated as
// writeJSON's is.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// rawRecords returns the named rows of a table as stored, in the order
// given; nil when there are none.
func rawRecords(tx *db.Tx, table string, keys []string) []json.RawMessage {
	var out []json.RawMessage
	for _, k := range keys {
		if row, err := tx.AppendRow(nil, table, k); err == nil {
			out = append(out, row)
		}
	}
	return out
}

func readJSON(r *http.Request, v interface{}) error {
	defer r.Body.Close()
	return json.NewDecoder(r.Body).Decode(v)
}

func (s *Server) newID(prefix string) string {
	return fmt.Sprintf("%s-%06d", prefix, s.nextID.Add(1))
}

func randToken() string {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		panic(err)
	}
	return hex.EncodeToString(b)
}

type authedHandler func(w http.ResponseWriter, r *http.Request, u *User)

// auth resolves the Authorization bearer token to a user.
func (s *Server) auth(h authedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		if token == "" {
			writeErr(w, http.StatusUnauthorized, ErrCodeUnauthorized, "missing bearer token")
			return
		}
		var sess sessionRec
		var u User
		err := s.db.View(func(tx *db.Tx) error {
			if err := tx.Get("sessions", token, &sess); err != nil {
				return err
			}
			return tx.Get("users", sess.UserID, &u)
		})
		if errors.Is(err, db.ErrNotFound) {
			writeErr(w, http.StatusUnauthorized, ErrCodeUnauthorized, "invalid session")
			return
		}
		if err != nil {
			// The store failed, not the session: clients retry a 503 and
			// log the student out on a 401.
			writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "session lookup: %v", err)
			return
		}
		h(w, r, &u)
	}
}

// classed passes an authenticated handler through the admission
// controller: the request is charged against the caller's and the
// course's token buckets and holds a priority-class concurrency slot for
// its duration. A shed renders the unified envelope as 429 with a
// Retry-After hint; per-tenant bucket sheds keep the rate_limited code
// (the client's own fault), every other shed is overloaded (the
// system's state).
func (s *Server) classed(cl overload.Class, h authedHandler) authedHandler {
	return func(w http.ResponseWriter, r *http.Request, u *User) {
		ticket, err := s.overload.Admit(r.Context(), cl, "user:"+u.ID, "course:"+string(s.course))
		if err != nil {
			s.writeShed(w, err)
			return
		}
		defer ticket.Release()
		h(w, r, u)
	}
}

// writeShed renders one shed decision: 429, Retry-After, unified envelope.
func (s *Server) writeShed(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(overload.RetryAfterSeconds(err)))
	code := ErrCodeOverloaded
	var se *overload.ShedError
	if errors.As(err, &se) && se.Reason == overload.ReasonRateLimited {
		code = ErrCodeRateLimited
	}
	writeErr(w, http.StatusTooManyRequests, code, "%v", err)
}

// instructor additionally requires the instructor role.
func (s *Server) instructor(h authedHandler) http.HandlerFunc {
	return s.auth(func(w http.ResponseWriter, r *http.Request, u *User) {
		if u.Role != "instructor" {
			writeErr(w, http.StatusForbidden, ErrCodeForbidden, "instructor role required")
			return
		}
		h(w, r, u)
	})
}

// labFromPath resolves the {lab} path parameter, restricted to the
// server's course.
func (s *Server) labFromPath(w http.ResponseWriter, r *http.Request) *labs.Lab {
	id := r.PathValue("lab")
	l := labs.ByID(id)
	if l == nil || !l.UsedBy(s.course) {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no lab %q in course %s", id, s.course)
		return nil
	}
	return l
}

func codeKey(userID, labID string) string { return userID + "|" + labID }

func histKey(userID, labID string, rev int) string {
	return fmt.Sprintf("%s|%s|%08d", userID, labID, rev)
}

// prefixKeys returns, in order, the keys of a table that start with
// prefix (a user|lab| range of history, a lab|user| range of an index).
func prefixKeys(tx *db.Tx, table, prefix string) []string {
	var keys []string
	tx.ScanPrefix(table, prefix, func(k string) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// The attempts, submissions and comments tables are keyed by record ID,
// but every page reads them by lab and student. Each therefore has a
// by-lab index table, written in the same transaction as the record,
// whose keys are lab|user|id and whose rows are empty: a lab's roster is
// the lab| range, one student's page the lab|user| range, and the record
// ID is the tail of the key. No read decodes another student's rows.
const byLab = "_by_lab"

// putIndexed stores a record under its ID together with its by-lab index
// row. Re-putting a record (sharing an attempt) needs only tx.Put: the
// index row never changes.
func putIndexed(tx *db.Tx, table, labID, userID, id string, rec interface{}) error {
	if err := tx.Put(table, id, rec); err != nil {
		return err
	}
	return tx.Put(table+byLab, labID+"|"+userID+"|"+id, struct{}{})
}

// ownedIDs returns, in ID order, the IDs of the table's records that
// belong to one student on one lab.
func ownedIDs(tx *db.Tx, table, labID, userID string) []string {
	prefix := labID + "|" + userID + "|"
	ids := prefixKeys(tx, table+byLab, prefix)
	for i, k := range ids {
		ids[i] = k[len(prefix):]
	}
	return ids
}

// scanLab calls fn with the owner and ID of every record of the table on
// the lab, grouped by user and in ID order within a user.
func scanLab(tx *db.Tx, table, labID string, fn func(userID, id string)) {
	prefix := labID + "|"
	tx.ScanPrefix(table+byLab, prefix, func(k string) bool {
		if sep := strings.LastIndexByte(k, '|'); sep >= len(prefix) {
			fn(k[len(prefix):sep], k[sep+1:])
		}
		return true
	})
}

// loadSource returns the student's current saved code, or the skeleton
// when nothing is saved. Any other failure is the store's and is returned:
// an empty string here would be graded as the student's program.
func (s *Server) loadSource(userID string, l *labs.Lab) (string, error) {
	var rec CodeRec
	err := s.db.View(func(tx *db.Tx) error {
		return tx.Get("code", codeKey(userID, l.ID), &rec)
	})
	if errors.Is(err, db.ErrNotFound) {
		return l.Skeleton, nil
	}
	return rec.Source, err
}
