package webserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"webgpu/internal/devsession"
)

// The live development loop (ROADMAP item 4): a session-scoped streaming
// compile+analysis API. A session is opened per (student, lab); the client
// pushes keystroke-debounced drafts to the draft endpoint and receives
// typed compile/diagnostics/status events over a server-sent-event stream.

// handleOpenSession creates a live development session for the lab.
func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	sess, err := s.devsessions.Open(u.ID, l.ID, l.Dialect)
	switch {
	case errors.Is(err, devsession.ErrSessionLimit):
		// Shed like a draft (2 s): any session that closes frees a slot.
		w.Header().Set("Retry-After", "2")
		writeErr(w, http.StatusTooManyRequests, ErrCodeOverloaded, "%v", err)
		return
	case errors.Is(err, devsession.ErrUserSessionLimit):
		writeErr(w, http.StatusTooManyRequests, ErrCodeRateLimited, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]interface{}{
		"session_id": sess.ID,
		"lab_id":     l.ID,
		"user_id":    u.ID,
		"dialect":    l.Dialect.String(),
		"events_url": "/api/v1/sessions/" + sess.ID + "/events",
		"draft_url":  "/api/v1/sessions/" + sess.ID + "/draft",
	})
}

// sessionFromPath resolves {id} to a session owned by the caller.
func (s *Server) sessionFromPath(w http.ResponseWriter, r *http.Request, u *User) *devsession.Session {
	id := r.PathValue("id")
	sess := s.devsessions.Get(id)
	if sess == nil {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no session %q (expired or never opened)", id)
		return nil
	}
	if sess.UserID != u.ID {
		writeErr(w, http.StatusForbidden, ErrCodeForbidden, "not your session")
		return nil
	}
	return sess
}

// handleSessionDraft accepts one debounced source push. Drafts are
// coalesced latest-wins server-side, so clients may push optimistically;
// 202 means the draft is queued (its events arrive on the stream), and
// coalesced=true means it replaced an earlier queued draft.
func (s *Server) handleSessionDraft(w http.ResponseWriter, r *http.Request, u *User) {
	sess := s.sessionFromPath(w, r, u)
	if sess == nil {
		return
	}
	var req struct {
		Source string `json:"source"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request: %v", err)
		return
	}
	seq, coalesced, err := sess.PushDraft(req.Source)
	switch {
	case errors.Is(err, devsession.ErrRateLimited):
		writeErr(w, http.StatusTooManyRequests, ErrCodeRateLimited, "%v", err)
		return
	case errors.Is(err, devsession.ErrClosed):
		writeErr(w, http.StatusConflict, ErrCodeConflict, "session %s is closed", sess.ID)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]interface{}{
		"session_id": sess.ID,
		"draft":      seq,
		"coalesced":  coalesced,
	})
}

// handleCloseSession tears a session down explicitly (idle eviction
// handles clients that just disappear).
func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request, u *User) {
	sess := s.sessionFromPath(w, r, u)
	if sess == nil {
		return
	}
	s.devsessions.Close(sess.ID)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"session_id": sess.ID,
		"closed":     true,
	})
}

// sseHeartbeat is the server-clock time between keepalive comments on a
// quiet event stream.
const sseHeartbeat = 15 * time.Second

// handleSessionEvents is the session's server-sent-event stream
// (text/event-stream). Every event carries its sequence number as the SSE
// id field; a reconnecting client sends Last-Event-ID and the buffered
// suffix replays before live events resume. Comment-line heartbeats keep
// proxies from reaping quiet streams, and a dropped client cancels the
// session's in-flight analysis via the request context.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request, u *User) {
	sess := s.sessionFromPath(w, r, u)
	if sess == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, ErrCodeInternal,
			"response writer does not support streaming")
		return
	}
	afterSeq := int64(0)
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("last_event_id")
	}
	if lastID != "" {
		n, err := strconv.ParseInt(lastID, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "invalid Last-Event-ID %q", lastID)
			return
		}
		afterSeq = n
	}
	replay, ch, unsubscribe, err := sess.Subscribe(afterSeq)
	if err != nil {
		writeErr(w, http.StatusConflict, ErrCodeConflict, "session %s is closed", sess.ID)
		return
	}
	defer unsubscribe()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // nginx: do not buffer the stream
	w.WriteHeader(http.StatusOK)
	for _, ev := range replay {
		writeSSEEvent(w, ev)
	}
	fl.Flush()

	heartbeat := s.clock.NewTimer(sseHeartbeat)
	defer func() { heartbeat.Stop() }()
	for {
		select {
		case <-r.Context().Done():
			// Client gone: unsubscribe (deferred) cancels any in-flight
			// analysis and drops the pending draft.
			return
		case ev, open := <-ch:
			if !open {
				// Session closed, or this subscriber fell behind and was
				// kicked; the client reconnects with Last-Event-ID.
				return
			}
			writeSSEEvent(w, ev)
			// One flush per burst: a draft's compile and diagnostics are
			// emitted back to back, so the second is usually queued by now.
			// This handler is ch's only receiver, so a non-zero len cannot
			// block; a close behind the queued events is seen next time round.
			for len(ch) > 0 {
				writeSSEEvent(w, <-ch)
			}
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
			heartbeat = s.clock.NewTimer(sseHeartbeat)
		}
	}
}

// writeSSEEvent renders one event in the SSE wire format. The JSON body
// is single-line, so the one data: field never needs splitting.
func writeSSEEvent(w http.ResponseWriter, ev devsession.Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"seq":%d,"type":"status","data":{"state":"encode_error"}}`, ev.Seq))
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
}
