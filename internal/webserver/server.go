// Package webserver implements WebGPU's web tier (§III-A, §IV): the HTTP
// interface through which students edit, compile, run, and submit lab
// code and instructors manage the roster and grades. It persists every
// code save (the History view), every attempt (the Attempts view), and
// all grades in the database, dispatches compilation/execution jobs to
// the worker tier through a pluggable dispatcher, and enforces the
// submission rate limits of §III-C.
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
	"webgpu/internal/clock"
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
// the platform publishes it to the broker. The context carries the
// request's trace and its cancellation: when the student
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
// and redriving dead letters. A web tier built without a broker leaves it
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
	// Clock stamps records and times the submission interval and the
	// event-stream heartbeat; nil means clock.Real.
	Clock clock.Clock

	// Metrics is the shared registry /api/v1/admin/metrics dumps; nil
	// creates a private one. Traces is the ring of recent job traces
	// behind /api/v1/admin/traces; nil creates one with default capacity.
	Metrics *metrics.Registry
	Traces  *trace.Store

	// Queue backs the dead-letter admin endpoints (nil = 501).
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
	// reads) and burn-rate SLOs. Nil builds one with the default
	// (generous) limits on the shared Metrics/Clock.
	Overload *overload.Controller
}

// Server is the WebGPU web tier.
type Server struct {
	db          *db.DB
	dispatch    Dispatcher
	gradebook   grader.Gradebook
	reviews     *peerreview.Store
	course      labs.Course
	limiter     *clock.Limiter
	clock       clock.Clock
	mux         *http.ServeMux
	nextID      atomic.Int64
	deadlines   map[string]time.Time
	metrics     *metrics.Registry
	traces      *trace.Store
	queue       QueueAdmin
	progs       *progcache.Cache
	artifacts   *castore.Store
	devsessions *devsession.Manager
	overload    *overload.Controller

	// policies maps lab ID → analysis policy (worker.Analysis*). Unlike
	// deadlines (set once at course setup), instructors flip these at
	// runtime through the API, so access is mutex-guarded.
	polMu    sync.RWMutex
	policies map[string]string
}

// New builds a server.
func New(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real
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
	s := &Server{
		db:          cfg.DB,
		dispatch:    cfg.Dispatcher,
		gradebook:   cfg.Gradebook,
		reviews:     cfg.Reviews,
		course:      cfg.Course,
		limiter:     cfg.Limits.SubmitLimiter(cfg.Clock),
		clock:       cfg.Clock,
		deadlines:   map[string]time.Time{},
		policies:    map[string]string{},
		metrics:     cfg.Metrics,
		traces:      cfg.Traces,
		queue:       cfg.Queue,
		progs:       cfg.ProgCache,
		artifacts:   cfg.Artifacts,
		devsessions: cfg.DevSessions,
		overload:    cfg.Overload,
	}
	// Live sessions are a backpressure signal: a wall of open draft loops
	// raises pressure, which sheds reads first, then drafts themselves.
	s.overload.SetDraftLoad(s.devsessions.Active)
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

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// DevSessions exposes the live-session manager (deployments close it on
// shutdown; tests inspect it).
func (s *Server) DevSessions() *devsession.Manager { return s.devsessions }

// APIVersionHeader names the response header stamping which API version
// served the request ("v1").
const APIVersionHeader = "X-WebGPU-API-Version"

// apiRoute is one entry of the API route table. Pattern is the path under
// the API prefix: the handler is mounted at /api/v1/<pattern> behind the
// route's access check and, unless Class is overload.ClassNone, its
// admission class. A public route's handler gets a nil user.
type apiRoute struct {
	Method, Pattern string
	Access          access
	Class           overload.Class
	handler         authedHandler
}

// access is who may call a route; a student is any signed-in user.
type access string

const public, student, instructor access = "public", "student", "instructor"

// apiRoutes is the single route table the API surface is generated from.
// Adding a route here mounts it under /api/v1 and enrolls it in the
// route-conformance tests.
func (s *Server) apiRoutes() []apiRoute {
	return []apiRoute{
		{"POST", "register", public, overload.ClassNone, s.handleRegister},
		{"POST", "login", public, overload.ClassNone, s.handleLogin},
		{"GET", "labs", student, overload.ClassNone, s.handleListLabs},
		{"GET", "labs/{lab}", student, overload.ClassNone, s.handleGetLab},
		{"POST", "labs/{lab}/save", student, overload.ClassNone, s.handleSave},
		{"GET", "labs/{lab}/code", student, overload.ClassNone, s.handleGetCode},
		{"GET", "labs/{lab}/history", student, overload.ClassRead, s.handleHistory},
		{"POST", "labs/{lab}/compile", student, overload.ClassSubmission, s.handleCompile},
		{"POST", "labs/{lab}/attempt", student, overload.ClassSubmission, s.handleAttempt},
		{"GET", "labs/{lab}/attempts", student, overload.ClassRead, s.handleAttempts},
		{"POST", "labs/{lab}/questions", student, overload.ClassNone, s.handleAnswerQuestions},
		{"POST", "labs/{lab}/submit", student, overload.ClassSubmission, s.handleSubmit},
		{"GET", "labs/{lab}/grade", student, overload.ClassRead, s.handleGetGrade},
		{"GET", "labs/{lab}/hints", student, overload.ClassNone, s.handleHints},
		{"POST", "attempts/{attempt}/share", student, overload.ClassNone, s.handleShare},
		{"GET", "share/{token}", public, overload.ClassNone, s.handleViewShare},
		{"GET", "reviews", student, overload.ClassRead, s.handleMyReviews},
		{"POST", "reviews/complete", student, overload.ClassRead, s.handleCompleteReview},
		{"GET", "instructor/roster/{lab}", instructor, overload.ClassNone, s.handleRoster},
		{"GET", "instructor/student/{user}/{lab}", instructor, overload.ClassNone, s.handleStudentDetail},
		{"POST", "instructor/override", instructor, overload.ClassNone, s.handleOverride},
		{"POST", "instructor/comment", instructor, overload.ClassNone, s.handleComment},
		{"POST", "instructor/reviews/assign/{lab}", instructor, overload.ClassNone, s.handleAssignReviews},
		{"POST", "instructor/labs/{lab}/analysis", instructor, overload.ClassNone, s.handleSetAnalysisPolicy},
		{"GET", "instructor/labs/{lab}/analysis", instructor, overload.ClassNone, s.handleGetAnalysisPolicy},
		{"GET", "instructor/export", instructor, overload.ClassNone, s.handleExport},
		{"GET", "admin/metrics", instructor, overload.ClassNone, s.handleAdminMetrics},
		{"GET", "admin/traces", instructor, overload.ClassNone, s.handleAdminTraces},
		{"GET", "admin/traces/{id}", instructor, overload.ClassNone, s.handleAdminTrace},
		{"GET", "admin/deadletters", instructor, overload.ClassNone, s.handleAdminDeadLetters},
		{"POST", "admin/deadletters/redrive", instructor, overload.ClassNone, s.handleAdminRedrive},

		// Live development loop.
		{"POST", "labs/{lab}/session", student, overload.ClassNone, s.handleOpenSession},
		{"GET", "sessions/{id}/events", student, overload.ClassNone, s.handleSessionEvents},
		{"POST", "sessions/{id}/draft", student, overload.ClassDraft, s.handleSessionDraft},
		{"DELETE", "sessions/{id}", student, overload.ClassNone, s.handleCloseSession},
	}
}

// versioned stamps the API-version header.
func versioned(version string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(APIVersionHeader, version)
		h(w, r)
	}
}

// mount wraps a route's handler in its admission class, then its access
// check. Admission is keyed by the user, so a public route with a class
// is a table error.
func (s *Server) mount(rt apiRoute) http.HandlerFunc {
	h := rt.handler
	if rt.Class != overload.ClassNone {
		h = s.classed(rt.Class, h)
	}
	switch {
	case rt.Access == student:
		return s.auth(h)
	case rt.Access == instructor:
		return s.instructor(h)
	case rt.Class != overload.ClassNone:
		panic("webserver: public route " + rt.Pattern + " has an admission class")
	}
	return func(w http.ResponseWriter, r *http.Request) { h(w, r, nil) }
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	for _, rt := range s.apiRoutes() {
		s.mux.HandleFunc(rt.Method+" /api/v1/"+rt.Pattern, versioned("v1", s.mount(rt)))
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
// dispatcher, the broker (absent when the web tier has none), the program
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
		mark("broker", ComponentHealth{Status: "absent", Detail: "no message broker configured"})
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
	Source    string        `json:"source,omitempty"`
	Rev       int           `json:"rev,omitempty"` // the history revision the run executed; 0: the skeleton
	Outcome   *labs.Outcome `json:"outcome"`
	At        time.Time     `json:"at"`
	Shared    bool          `json:"shared,omitempty"`
	ShareTok  string        `json:"share_token,omitempty"`
	TraceID   string        `json:"trace_id,omitempty"`

	// Diagnostics are the static-analyzer findings for the attempted
	// source, so the Attempts view can show them next to the outcome.
	Diagnostics []kernelcheck.Diagnostic `json:"diagnostics,omitempty"`

	// Trimmed marks an attempt a newer one on the same dataset superseded:
	// its outcome keeps the verdict but not the trace or per-launch stats,
	// and a Rev above 0 stands for its source.
	Trimmed bool `json:"trimmed,omitempty"`
}

// SubmissionRec is a final graded submission.
type SubmissionRec struct {
	ID       string          `json:"id"`
	UserID   string          `json:"user_id"`
	LabID    string          `json:"lab_id"`
	Source   string          `json:"source,omitempty"`
	Rev      int             `json:"rev,omitempty"` // the history revision the run executed; 0: the skeleton
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

	// Trimmed marks a submission a newer one on the same lab superseded:
	// its outcomes keep their verdicts but not their traces or per-launch
	// stats, its grade drops the feedback Diagnostics already holds, and a
	// Rev above 0 stands for its source.
	Trimmed bool `json:"trimmed,omitempty"`
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

// writeStoreErr reports a store failure: 503 when the store is closed,
// 500 when a row it holds does not decode.
func writeStoreErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, db.ErrClosed) {
		status = http.StatusServiceUnavailable
	}
	writeErr(w, status, ErrCodeInternal, "%v", err)
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
	// Twelve digits keep string order issue order: ownedIDs, the hints
	// route and the roster all take the last key as the newest record.
	return fmt.Sprintf("%s-%012d", prefix, s.nextID.Add(1))
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
// controller: the request holds a priority-class concurrency slot for
// its duration. A shed renders the unified envelope as a 429 overloaded
// (the system's state, not the client's fault) with a Retry-After hint.
func (s *Server) classed(cl overload.Class, h authedHandler) authedHandler {
	return func(w http.ResponseWriter, r *http.Request, u *User) {
		ticket, err := s.overload.Admit(r.Context(), cl)
		if err != nil {
			w.Header().Set("Retry-After", strconv.Itoa(overload.RetryAfterSeconds(err)))
			writeErr(w, http.StatusTooManyRequests, ErrCodeOverloaded, "%v", err)
			return
		}
		defer ticket.Release()
		h(w, r, u)
	}
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

// A student's newest attempt on a dataset and newest submission on a lab
// keep their full outcomes. Once a newer one lands, a record is stored as
// its superseded form, trimmed of traces and per-launch stats and of the
// source its history revision already holds, so stored state grows by a
// verdict per resubmission, not by a trace or a second copy of the code.
// The form is built when the record is written, while the struct is at
// hand, and kept as the slot's one row of a pointer table keyed slot|id:
// the write that supersedes the record copies those bytes over it and
// decodes no earlier row, however long the student's history is.
const newestOf = "_newest"

// putNewest stores rec as the newest record of its slot with putIndexed,
// stores the record it supersedes as that record's superseded form, and
// keeps superseded, rec's own form, as the slot's pointer row.
func putNewest(tx *db.Tx, table, labID, userID, id, slot string, rec, superseded interface{}) error {
	ptrs := table + newestOf
	for _, k := range prefixKeys(tx, ptrs, slot+"|") {
		form, err := tx.AppendRow(nil, ptrs, k)
		if err != nil {
			return err
		}
		if err := tx.Put(table, k[len(slot)+1:], json.RawMessage(form)); err != nil {
			return err
		}
		if err := tx.Delete(ptrs, k); err != nil {
			return err
		}
	}
	if err := putIndexed(tx, table, labID, userID, id, rec); err != nil {
		return err
	}
	return tx.Put(ptrs, slot+"|"+id, superseded)
}

// attemptSlot is the pointer-table slot of a student's attempts on one
// dataset.
func attemptSlot(userID, labID string, dataset int) string {
	return codeKey(userID, labID) + "|" + strconv.Itoa(dataset)
}

// superseded is the attempt as stored once a newer attempt on its dataset
// lands: the verdict without the trace or per-launch stats, and no source
// when history holds it.
func (a AttemptRec) superseded() AttemptRec {
	if a.Rev > 0 {
		a.Source = "" // history holds it, at histKey(user, lab, rev)
	}
	a.Outcome = trimmed(a.Outcome)
	a.Trimmed = true
	return a
}

// superseded is the submission as stored once a newer one on its lab
// lands: the verdicts without traces or per-launch stats, no source when
// history holds it, and a grade without the feedback Diagnostics already
// holds or the IDs the record itself states.
func (sub SubmissionRec) superseded() SubmissionRec {
	if sub.Rev > 0 {
		sub.Source = "" // history holds it, at histKey(user, lab, rev)
	}
	outs := make([]*labs.Outcome, len(sub.Outcomes))
	for i, o := range sub.Outcomes {
		outs[i] = trimmed(o)
	}
	sub.Outcomes = outs
	if sub.Grade != nil {
		g := *sub.Grade
		g.Feedback = nil
		g.UserID, g.LabID, g.SubmissionID = "", "", ""
		sub.Grade = &g
	}
	sub.Trimmed = true
	return sub
}

// trimmed returns a copy of the outcome without what it holds beyond its
// verdict, fault and timings, nor the lab ID its record states.
func trimmed(o *labs.Outcome) *labs.Outcome {
	if o == nil {
		return nil
	}
	c := *o
	c.LabID, c.Trace, c.Kernels = "", "", nil
	return &c
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

// loadCode returns the student's current saved code, or the skeleton at
// revision 0 when nothing is saved. Any other failure is the store's and
// is returned: an empty source here would be graded as the student's
// program.
func (s *Server) loadCode(userID string, l *labs.Lab) (CodeRec, error) {
	var rec CodeRec
	err := s.db.View(func(tx *db.Tx) error {
		return tx.Get("code", codeKey(userID, l.ID), &rec)
	})
	if errors.Is(err, db.ErrNotFound) {
		return CodeRec{Source: l.Skeleton}, nil
	}
	return rec, err
}
