package webserver

import (
	"net/http"
	"strconv"
	"time"

	"webgpu/internal/worker"
)

// Admin observability endpoints (instructor-gated): the Prometheus-style
// metrics dump and the recent-trace ring that together answer "where did
// submission X spend its 4 seconds?" — the operational blind spot that
// motivated the v2 architecture (§IV).

// handleAdminMetrics dumps the shared metrics registry in the Prometheus
// text exposition format. Registered collectors (program cache, broker,
// fleet) refresh their gauges on each scrape.
func (s *Server) handleAdminMetrics(w http.ResponseWriter, r *http.Request, u *User) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(s.metrics.PrometheusText()))
}

// handleAdminTraces lists recent job traces, newest first. ?limit=N
// bounds the listing (default 20).
func (s *Server) handleAdminTraces(w http.ResponseWriter, r *http.Request, u *User) {
	limit := 20
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "invalid limit %q", v)
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"total":  s.traces.Len(),
		"traces": s.traces.Recent(limit),
	})
}

// deadLetterView is the admin rendering of one dead-lettered message:
// enough to see which job poisoned the queue, and its trace, without
// dumping raw payloads. Tags are the job's requirements.
type deadLetterView struct {
	ID       string    `json:"id"`
	Topic    string    `json:"topic"`
	JobID    string    `json:"job_id,omitempty"`
	TraceID  string    `json:"trace_id,omitempty"`
	Tags     []string  `json:"tags,omitempty"`
	Attempts int       `json:"attempts"`
	Enqueued time.Time `json:"enqueued"`
}

// handleAdminDeadLetters lists the broker's dead-letter queue — jobs that
// exhausted their delivery attempts and need an operator's eye before a
// redrive puts them back in rotation.
func (s *Server) handleAdminDeadLetters(w http.ResponseWriter, r *http.Request, u *User) {
	if s.queue == nil {
		writeErr(w, http.StatusNotImplemented, ErrCodeNotImplemented,
			"this deployment has no message broker (v1 push dispatch)")
		return
	}
	msgs := s.queue.DeadLetters()
	views := make([]deadLetterView, 0, len(msgs))
	for _, m := range msgs {
		v := deadLetterView{ID: m.ID, Topic: m.Topic, Tags: m.Tags,
			Attempts: m.Attempts, Enqueued: m.Enqueued}
		if job, err := worker.DecodeJob(m.Payload); err == nil {
			v.JobID, v.TraceID = job.ID, job.TraceID
		}
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"total":        len(views),
		"dead_letters": views,
	})
}

// handleAdminRedrive requeues every dead letter onto its original topic
// with a fresh attempt budget (the SQS-style operator remedy after the
// underlying fault is fixed).
func (s *Server) handleAdminRedrive(w http.ResponseWriter, r *http.Request, u *User) {
	if s.queue == nil {
		writeErr(w, http.StatusNotImplemented, ErrCodeNotImplemented,
			"this deployment has no message broker (v1 push dispatch)")
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"redriven": s.queue.RedriveDeadLetters(),
	})
}

// handleAdminTrace returns one trace by ID with all its spans.
func (s *Server) handleAdminTrace(w http.ResponseWriter, r *http.Request, u *User) {
	id := r.PathValue("id")
	tr := s.traces.Get(id)
	if tr == nil {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no trace %q (the ring keeps the most recent %d)",
			id, s.traces.Len())
		return
	}
	writeJSON(w, http.StatusOK, tr.Snapshot())
}
