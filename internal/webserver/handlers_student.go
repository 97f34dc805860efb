package webserver

import (
	"context"
	"errors"
	"fmt"
	"html"
	"net/http"
	"strconv"
	"time"

	"webgpu/internal/db"
	"webgpu/internal/feedback"
	"webgpu/internal/grader"
	"webgpu/internal/labs"
	"webgpu/internal/markdown"
	"webgpu/internal/sandbox"
	"webgpu/internal/trace"
	"webgpu/internal/worker"
)

// ---- Accounts ------------------------------------------------------------------

var errEmailTaken = errors.New("email already registered")

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request, _ *User) {
	var req struct {
		Name  string `json:"name"`
		Email string `json:"email"`
		Role  string `json:"role"`
	}
	if err := readJSON(r, &req); err != nil || req.Email == "" {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "name and email required")
		return
	}
	if req.Role == "" {
		req.Role = "student"
	}
	if req.Role != "student" && req.Role != "instructor" {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "invalid role %q", req.Role)
		return
	}
	var token string
	var user User
	err := s.db.Update(func(tx *db.Tx) error {
		if tx.Exists(usersByEmail, req.Email) {
			return errEmailTaken
		}
		user = User{
			ID:     s.newID("user"),
			Name:   req.Name,
			Email:  req.Email,
			Role:   req.Role,
			Joined: s.clock.Now().Format(time.RFC3339),
		}
		if err := tx.Put("users", user.ID, user); err != nil {
			return err
		}
		if err := tx.Put(usersByEmail, user.Email, emailRef{ID: user.ID}); err != nil {
			return err
		}
		token = randToken()
		return tx.Put("sessions", token, sessionRec{Token: token, UserID: user.ID})
	})
	if errors.Is(err, errEmailTaken) {
		writeErr(w, http.StatusConflict, ErrCodeConflict, "%v", err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]interface{}{"user": user, "token": token})
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request, _ *User) {
	var req struct {
		Email string `json:"email"`
	}
	if err := readJSON(r, &req); err != nil || req.Email == "" {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "email required")
		return
	}
	var token string
	var user User
	err := s.db.Update(func(tx *db.Tx) error {
		var ref emailRef
		if err := tx.Get(usersByEmail, req.Email, &ref); err != nil {
			return err
		}
		if err := tx.Get("users", ref.ID, &user); err != nil {
			return err
		}
		token = randToken()
		return tx.Put("sessions", token, sessionRec{Token: token, UserID: user.ID})
	})
	if errors.Is(err, db.ErrNotFound) {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no account for %s", req.Email)
		return
	}
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"user": user, "token": token})
}

// ---- Labs -----------------------------------------------------------------------

func (s *Server) handleListLabs(w http.ResponseWriter, r *http.Request, u *User) {
	type labInfo struct {
		ID          string `json:"id"`
		Number      int    `json:"number"`
		Name        string `json:"name"`
		Summary     string `json:"summary"`
		NumDatasets int    `json:"num_datasets"`
		MaxPoints   int    `json:"max_points"`
		Deadline    string `json:"deadline,omitempty"`
	}
	var out []labInfo
	for _, l := range labs.ForCourse(s.course) {
		info := labInfo{ID: l.ID, Number: l.Number, Name: l.Name, Summary: l.Summary,
			NumDatasets: l.NumDatasets, MaxPoints: l.MaxPoints()}
		if dl, ok := s.deadlines[l.ID]; ok {
			info.Deadline = dl.Format(time.RFC3339)
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetLab(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	code, err := s.loadCode(u.ID, l)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	datasets := make([]string, l.NumDatasets)
	for i := range datasets {
		datasets[i] = fmt.Sprintf("Dataset %d", i)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id":              l.ID,
		"name":            l.Name,
		"description_md":  l.Description,
		"description":     markdown.Render(l.Description),
		"code":            code.Source,
		"skeleton":        l.Skeleton,
		"datasets":        datasets,
		"questions":       l.Questions,
		"dialect":         l.Dialect.String(),
		"rubric":          l.Rubric,
		"max_points":      l.MaxPoints(),
		"analysis_policy": s.AnalysisPolicy(l.ID),
	})
}

// handleLabPage renders the Code view as HTML (the paper's Figure 3).
func (s *Server) handleLabPage(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	code, err := s.loadCode(u.ID, l)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><title>WebGPU — %s</title></head>
<body>
<nav>Description | Code | Questions | Attempts | History</nav>
<section id="description">%s</section>
<section id="code">
<div class="controls">
  <button id="compile">Compile</button>
  <select id="dataset">`, html.EscapeString(l.Name), markdown.Render(l.Description))
	for i := 0; i < l.NumDatasets; i++ {
		fmt.Fprintf(w, `<option value="%d">Dataset %d</option>`, i, i)
	}
	fmt.Fprintf(w, `</select>
  <button id="run">Compile &amp; Run</button>
  <button id="submit">Submit for grading</button>
</div>
<textarea id="editor" rows="30" cols="100">%s</textarea>
</section>
</body></html>
`, html.EscapeString(code.Source))
}

// ---- Code editing (§IV-A action 1: autosave + history) ---------------------------

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	var req struct {
		Source string `json:"source"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request: %v", err)
		return
	}
	rec, err := s.saveSource(u, l, req.Source)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"rev": rec.Rev, "saved_at": rec.SavedAt})
}

// saveSource stores source as the user's next revision of the lab: the
// current code row and, since every save is kept, a history row ("It
// automatically saves all student code ... so that a user can backtrack
// to earlier versions", §III-A).
func (s *Server) saveSource(u *User, l *labs.Lab, source string) (CodeRec, error) {
	var rec CodeRec
	err := s.db.Update(func(tx *db.Tx) error {
		key := codeKey(u.ID, l.ID)
		if err := tx.Get("code", key, &rec); err != nil && !errors.Is(err, db.ErrNotFound) {
			return err
		}
		rec.UserID, rec.LabID = u.ID, l.ID
		rec.Rev++
		rec.Source = source
		rec.SavedAt = s.clock.Now()
		if err := tx.Put("code", key, rec); err != nil {
			return err
		}
		return tx.Put("history", histKey(u.ID, l.ID, rec.Rev), rec)
	})
	return rec, err
}

func (s *Server) handleGetCode(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	code, err := s.loadCode(u.ID, l)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"source": code.Source})
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	p, ok := parsePage(w, r)
	if !ok {
		return
	}
	// histKey pads the revision, so key order is revision order.
	s.servePage(w, "history", p, func(tx *db.Tx) []string {
		return prefixKeys(tx, "history", codeKey(u.ID, l.ID)+"|")
	})
}

// ---- Compile / attempt / submit ---------------------------------------------------

// currentSource is the code a run executes: the request body's source,
// saved as a new revision, or else the last save (the skeleton at
// revision 0 when there is none). Its Rev is the run's.
func (s *Server) currentSource(r *http.Request, u *User, l *labs.Lab) (CodeRec, error) {
	var req struct {
		Source    string   `json:"source"`
		DatasetID *int     `json:"dataset_id"`
		Answers   []string `json:"answers"`
	}
	if r.Body != nil {
		_ = readJSON(r, &req) // empty body is fine
	}
	if req.Source == "" {
		return s.loadCode(u.ID, l)
	}
	return s.saveSource(u, l, req.Source)
}

// startTrace opens the request's end-to-end trace, registers it in the
// admin ring, and stamps the response with the X-WebGPU-Trace header.
// The returned context carries both the trace and the request's
// cancellation (a disconnecting student cancels the job downstream).
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) (context.Context, *trace.Trace) {
	tr := s.traces.NewTrace()
	w.Header().Set("X-WebGPU-Trace", tr.ID())
	return trace.NewContext(r.Context(), tr), tr
}

func (s *Server) runJob(ctx context.Context, u *User, l *labs.Lab, source string, datasetID int) (*worker.Result, error) {
	tr := trace.FromContext(ctx)
	job := &worker.Job{
		ID:             s.newID("job"),
		LabID:          l.ID,
		UserID:         u.ID,
		Source:         source,
		DatasetID:      datasetID,
		Requirements:   l.Requirements,
		TraceID:        tr.ID(),
		AnalysisPolicy: s.AnalysisPolicy(l.ID),
	}
	sp := tr.StartSpan("dispatch", "job", job.ID, "lab", l.ID)
	res, err := s.dispatch.Dispatch(ctx, job)
	sp.End()
	s.metrics.Inc("web_jobs_dispatched", 1)
	if err != nil {
		s.metrics.Inc("web_dispatch_errors", 1)
	}
	if res != nil {
		// On the v2 path the worker's spans arrive on the result; fold
		// them into the canonical trace and strip them from the HTTP body.
		tr.AddAll(res.Spans)
		res.Spans = nil
		if res.TraceID == "" {
			res.TraceID = tr.ID()
		}
	}
	return res, err
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	ctx, tr := s.startTrace(w, r)
	defer tr.Finish()
	code, err := s.currentSource(r, u, l)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	res, err := s.runJob(ctx, u, l, code.Source, worker.DatasetCompileOnly)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeWorkerUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleAttempt(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	datasetID := 0
	if raw := r.URL.Query().Get("dataset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, ErrCodeBadDataset,
				"invalid dataset %q: want a non-negative integer", raw)
			return
		}
		datasetID = n
	}
	ctx, tr := s.startTrace(w, r)
	defer tr.Finish()
	code, err := s.currentSource(r, u, l)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	res, err := s.runJob(ctx, u, l, code.Source, datasetID)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeWorkerUnavailable, "%v", err)
		return
	}
	att := AttemptRec{
		ID:          s.newID("att"),
		UserID:      u.ID,
		LabID:       l.ID,
		DatasetID:   datasetID,
		Source:      code.Source,
		Rev:         code.Rev,
		At:          s.clock.Now(),
		TraceID:     res.TraceID,
		Diagnostics: res.Diagnostics,
	}
	if len(res.Outcomes) > 0 {
		att.Outcome = res.Outcomes[0]
	} else if res.Error != "" {
		att.Outcome = &labs.Outcome{LabID: l.ID, DatasetID: datasetID, CompileError: res.Error}
	}
	if err := s.db.Update(func(tx *db.Tx) error {
		return putNewest(tx, "attempts", l.ID, u.ID, att.ID, attemptSlot(u.ID, l.ID, datasetID), att, att.superseded())
	}); err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, att)
}

func (s *Server) handleAttempts(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	p, ok := parsePage(w, r)
	if !ok {
		return
	}
	s.servePage(w, "attempts", p, func(tx *db.Tx) []string {
		return ownedIDs(tx, "attempts", l.ID, u.ID)
	})
}

func (s *Server) handleAnswerQuestions(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	var req struct {
		Answers []string `json:"answers"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	if len(req.Answers) > len(l.Questions) {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "lab has %d questions, got %d answers",
			len(l.Questions), len(req.Answers))
		return
	}
	rec := AnswersRec{UserID: u.ID, LabID: l.ID, Answers: req.Answers, At: s.clock.Now()}
	if err := s.db.Update(func(tx *db.Tx) error {
		return tx.Put("answers", codeKey(u.ID, l.ID), rec)
	}); err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	// Submission rate limiting (§III-C): the wait is the Retry-After,
	// rounded up to whole seconds.
	if wait := s.limiter.Take(u.ID); wait > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((wait+time.Second-1)/time.Second)))
		writeErr(w, http.StatusTooManyRequests, ErrCodeRateLimited, "%v: retry in %v",
			sandbox.ErrRateLimited, wait.Round(time.Second))
		return
	}
	ctx, tr := s.startTrace(w, r)
	defer tr.Finish()
	code, err := s.currentSource(r, u, l)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	res, err := s.runJob(ctx, u, l, code.Source, worker.DatasetAll)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeWorkerUnavailable, "%v", err)
		return
	}

	// Count answered questions for the rubric. Only a missing row means
	// none: a row that cannot be read must not be graded as unanswered.
	var answers AnswersRec
	err = s.db.View(func(tx *db.Tx) error {
		return tx.Get("answers", codeKey(u.ID, l.ID), &answers)
	})
	if err != nil && !errors.Is(err, db.ErrNotFound) {
		writeStoreErr(w, err)
		return
	}
	answered := 0
	for _, a := range answers.Answers {
		if a != "" {
			answered++
		}
	}

	gradeSpan := tr.StartSpan("grade")
	g := grader.Score(l, code.Source, res.Outcomes, answered)
	grader.AttachDiagnostics(g, res.Diagnostics)
	gradeSpan.End("total", strconv.Itoa(g.Total), "max", strconv.Itoa(g.Max))
	now := s.clock.Now()
	g.UserID, g.GradedAt = u.ID, now
	sub := SubmissionRec{
		ID:              s.newID("sub"),
		UserID:          u.ID,
		LabID:           l.ID,
		Source:          code.Source,
		Rev:             code.Rev,
		Outcomes:        res.Outcomes,
		Grade:           g,
		At:              now,
		TraceID:         res.TraceID,
		Diagnostics:     res.Diagnostics,
		AnalysisBlocked: res.AnalysisBlocked,
	}
	g.SubmissionID = sub.ID
	if dl, ok := s.deadlines[l.ID]; ok && sub.At.After(dl) {
		sub.Late = true
	}
	if err := s.db.Update(func(tx *db.Tx) error {
		if err := putNewest(tx, "submissions", l.ID, u.ID, sub.ID, codeKey(u.ID, l.ID), sub, sub.superseded()); err != nil {
			return err
		}
		return tx.Put("grades", codeKey(u.ID, l.ID), g)
	}); err != nil {
		writeStoreErr(w, err)
		return
	}
	// Automatic write-back to the external gradebook (§IV-F).
	if s.gradebook != nil {
		if err := s.gradebook.Record(g); err != nil {
			writeErr(w, http.StatusInternalServerError, ErrCodeInternal, "gradebook: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, sub)
}

func (s *Server) handleGetGrade(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	var body []byte
	err := s.db.View(func(tx *db.Tx) (err error) {
		body, err = tx.AppendRow(nil, "grades", codeKey(u.ID, l.ID))
		return err
	})
	if errors.Is(err, db.ErrNotFound) {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no grade yet")
		return
	}
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	writeBody(w, append(body, '\n'))
}

// handleHints implements the paper's §VIII future work — "on-demand
// help/hints during development": the automated-feedback analyzer is run
// over the student's most recent attempt, its outcome and the diagnostics
// of the source it ran, as stored.
func (s *Server) handleHints(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	var last AttemptRec
	err := s.db.View(func(tx *db.Tx) error {
		if ids := ownedIDs(tx, "attempts", l.ID, u.ID); len(ids) > 0 {
			return tx.Get("attempts", ids[len(ids)-1], &last)
		}
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"attempt": last.ID,
		"hints":   feedback.Analyze(l, last.Outcome, last.Diagnostics),
	})
}

// ---- Sharing (§IV-B: public link after the deadline) ------------------------------

func (s *Server) handleShare(w http.ResponseWriter, r *http.Request, u *User) {
	attID := r.PathValue("attempt")
	var att AttemptRec
	err := s.db.View(func(tx *db.Tx) error { return tx.Get("attempts", attID, &att) })
	if errors.Is(err, db.ErrNotFound) {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no attempt %q", attID)
		return
	}
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	if att.UserID != u.ID {
		writeErr(w, http.StatusForbidden, ErrCodeForbidden, "not your attempt")
		return
	}
	dl, ok := s.deadlines[att.LabID]
	if ok && s.clock.Now().Before(dl) {
		writeErr(w, http.StatusForbidden, ErrCodeForbidden,
			"attempts can be shared only after the lab deadline (%s)", dl.Format(time.RFC3339))
		return
	}
	att.Shared = true
	att.ShareTok = randToken()
	if err := s.db.Update(func(tx *db.Tx) error {
		// A superseded attempt reaches its source through the owner's
		// history, which the link's viewer cannot read: the shared record
		// carries it again.
		if att.Trimmed && att.Rev > 0 {
			var code CodeRec
			if err := tx.Get("history", histKey(att.UserID, att.LabID, att.Rev), &code); err != nil {
				return err
			}
			att.Source = code.Source
		}
		if err := tx.Put("attempts", att.ID, att); err != nil {
			return err
		}
		// Still the newest on its dataset: once superseded, it stays whole
		// too, so the link keeps showing what was shared.
		if ptr := attemptSlot(att.UserID, att.LabID, att.DatasetID) + "|" + att.ID; tx.Exists("attempts"+newestOf, ptr) {
			if err := tx.Put("attempts"+newestOf, ptr, att); err != nil {
				return err
			}
		}
		return tx.Put("shares", att.ShareTok, map[string]string{"attempt": att.ID})
	}); err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"url": "/api/v1/share/" + att.ShareTok})
}

func (s *Server) handleViewShare(w http.ResponseWriter, r *http.Request, _ *User) {
	token := r.PathValue("token")
	var ref map[string]string
	var att AttemptRec
	err := s.db.View(func(tx *db.Tx) error {
		if err := tx.Get("shares", token, &ref); err != nil {
			return err
		}
		return tx.Get("attempts", ref["attempt"], &att)
	})
	if err != nil {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no such share")
		return
	}
	writeJSON(w, http.StatusOK, att)
}

// ---- Peer reviews (§IV-D) ----------------------------------------------------------

func (s *Server) handleMyReviews(w http.ResponseWriter, r *http.Request, u *User) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"assignments": s.reviews.For(u.ID),
		"weight":      s.reviews.Weight(),
		"bonus":       s.reviews.GradeBonus(u.ID),
	})
}

func (s *Server) handleCompleteReview(w http.ResponseWriter, r *http.Request, u *User) {
	var req struct {
		LabID  string `json:"lab_id"`
		Author string `json:"author"`
		Text   string `json:"text"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	if err := s.reviews.Complete(req.LabID, u.ID, req.Author); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"completion": s.reviews.CompletionFraction(u.ID),
		"bonus":      s.reviews.GradeBonus(u.ID),
	})
}
