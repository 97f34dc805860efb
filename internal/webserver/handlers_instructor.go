package webserver

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"sort"

	"webgpu/internal/db"
	"webgpu/internal/grader"
	"webgpu/internal/peerreview"
)

// Instructor tools (§IV-F): the roster view of Figure 5, grade override,
// comments on student work, peer-review assignment, and gradebook export.
// Unlike lab *creation* (§IV-E, which required a terminal), these are all
// web-accessible.

// RosterRow is one student's line in the roster view: attempts, grades,
// and short-answer status for a lab (Figure 5).
type RosterRow struct {
	UserID        string        `json:"user_id"`
	Name          string        `json:"name"`
	Email         string        `json:"email"`
	Attempts      int           `json:"attempts"`
	Submissions   int           `json:"submissions"`
	ProgramGrade  int           `json:"program_grade"`
	QuestionGrade int           `json:"question_grade"`
	TotalGrade    int           `json:"total_grade"`
	MaxGrade      int           `json:"max_grade"`
	LastSubmitted string        `json:"last_submitted,omitempty"`
	Grade         *grader.Grade `json:"grade,omitempty"`
}

func (s *Server) handleRoster(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	rows := map[string]*RosterRow{}
	err := s.db.View(func(tx *db.Tx) error {
		// Seed rows from attempts and submissions so only students with
		// activity appear (the paper: "all students with a submission
		// attempt for the Lab"). The lab's index ranges carry owner and
		// ID, so attempts are counted without being read and only each
		// student's latest submission is decoded.
		rowFor := func(userID string) *RosterRow {
			row := rows[userID]
			if row == nil {
				row = &RosterRow{UserID: userID, MaxGrade: l.MaxPoints()}
				rows[userID] = row
			}
			return row
		}
		scanLab(tx, "attempts", l.ID, func(userID, _ string) { rowFor(userID).Attempts++ })
		latest := map[string]string{} // user -> last submission ID
		scanLab(tx, "submissions", l.ID, func(userID, id string) {
			rowFor(userID).Submissions++
			latest[userID] = id
		})
		// Only a missing row is absent; one that does not decode fails the
		// page rather than leaving a hole in it.
		for uid, id := range latest {
			var sub SubmissionRec
			switch err := tx.Get("submissions", id, &sub); {
			case err == nil:
				rows[uid].LastSubmitted = sub.At.Format("2006-01-02 15:04:05")
			case !errors.Is(err, db.ErrNotFound):
				return err
			}
		}
		for uid, row := range rows {
			var usr User
			switch err := tx.Get("users", uid, &usr); {
			case err == nil:
				row.Name, row.Email = usr.Name, usr.Email
			case !errors.Is(err, db.ErrNotFound):
				return err
			}
			var g grader.Grade
			switch err := tx.Get("grades", codeKey(uid, l.ID), &g); {
			case err == nil:
				row.Grade = &g
				row.ProgramGrade = g.Compile + g.Datasets + g.Keywords
				row.QuestionGrade = g.Questions
				row.TotalGrade = g.Total
			case !errors.Is(err, db.ErrNotFound):
				return err
			}
		}
		return nil
	})
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	out := make([]*RosterRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UserID < out[j].UserID })
	writeJSON(w, http.StatusOK, out)
}

// handleStudentDetail is the drill-down behind a roster row (§IV-F): the
// instructor reviews one student's code history, submission history,
// grade, short-answer responses, and the comments left so far.
func (s *Server) handleStudentDetail(w http.ResponseWriter, r *http.Request, u *User) {
	userID := r.PathValue("user")
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	var student User
	var history, submissions, attempts, comments []json.RawMessage
	var answers AnswersRec
	var grade *grader.Grade
	err := s.db.View(func(tx *db.Tx) error {
		if err := tx.Get("users", userID, &student); err != nil {
			return err
		}
		history = rawRecords(tx, "history", prefixKeys(tx, "history", codeKey(userID, l.ID)+"|"))
		submissions = rawRecords(tx, "submissions", ownedIDs(tx, "submissions", l.ID, userID))
		attempts = rawRecords(tx, "attempts", ownedIDs(tx, "attempts", l.ID, userID))
		if err := tx.Get("answers", codeKey(userID, l.ID), &answers); err != nil && !errors.Is(err, db.ErrNotFound) {
			return err
		}
		var g grader.Grade
		switch err := tx.Get("grades", codeKey(userID, l.ID), &g); {
		case err == nil:
			grade = &g
		case !errors.Is(err, db.ErrNotFound):
			return err
		}
		comments = rawRecords(tx, "comments", ownedIDs(tx, "comments", l.ID, userID))
		return nil
	})
	if errors.Is(err, db.ErrNotFound) {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no such student %q", userID)
		return
	}
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"student":     student,
		"lab":         l.ID,
		"history":     history,
		"submissions": submissions,
		"attempts":    attempts,
		"answers":     answers,
		"grade":       grade,
		"comments":    comments,
		"questions":   l.Questions,
	})
}

func (s *Server) handleOverride(w http.ResponseWriter, r *http.Request, u *User) {
	var req struct {
		UserID  string `json:"user_id"`
		LabID   string `json:"lab_id"`
		Total   int    `json:"total"`
		Comment string `json:"comment"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	var g grader.Grade
	err := s.db.Update(func(tx *db.Tx) error {
		if err := tx.Get("grades", codeKey(req.UserID, req.LabID), &g); err != nil {
			return err
		}
		grader.Override(&g, u.ID, req.Total, req.Comment)
		return tx.Put("grades", codeKey(req.UserID, req.LabID), g)
	})
	if errors.Is(err, db.ErrNotFound) {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "no grade for %s on %s", req.UserID, req.LabID)
		return
	}
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	if s.gradebook != nil {
		if err := s.gradebook.Record(&g); err != nil {
			writeErr(w, http.StatusInternalServerError, ErrCodeInternal, "gradebook: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, g)
}

func (s *Server) handleComment(w http.ResponseWriter, r *http.Request, u *User) {
	var req struct {
		UserID string `json:"user_id"`
		LabID  string `json:"lab_id"`
		Text   string `json:"text"`
	}
	if err := readJSON(r, &req); err != nil || req.Text == "" {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "user_id, lab_id, text required")
		return
	}
	c := CommentRec{
		ID:         s.newID("cmt"),
		UserID:     req.UserID,
		LabID:      req.LabID,
		Instructor: u.ID,
		Text:       req.Text,
		At:         s.clock.Now(),
	}
	if err := s.db.Update(func(tx *db.Tx) error {
		return putIndexed(tx, "comments", c.LabID, c.UserID, c.ID, c)
	}); err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, c)
}

func (s *Server) handleAssignReviews(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	var req struct {
		PerStudent int   `json:"per_student"`
		Seed       int64 `json:"seed"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	if req.PerStudent <= 0 {
		req.PerStudent = 3 // the paper's second offering
	}
	var students []string
	err := s.db.View(func(tx *db.Tx) error {
		// The index range groups a lab's submissions by user.
		scanLab(tx, "submissions", l.ID, func(userID, _ string) {
			if n := len(students); n == 0 || students[n-1] != userID {
				students = append(students, userID)
			}
		})
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, ErrCodeInternal, "%v", err)
		return
	}
	sort.Strings(students)
	as, err := peerreview.AssignRandom(l.ID, students, req.PerStudent, rand.New(rand.NewSource(req.Seed)))
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	s.reviews.Load(as)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"students":    len(students),
		"assignments": len(as),
	})
}

// handleSetAnalysisPolicy lets an instructor choose, per lab, what the
// worker does with static-analysis findings: attach them as warnings
// (the default), block execution on provable bugs (fail-fast), or skip
// the analyzer.
func (s *Server) handleSetAnalysisPolicy(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	var req struct {
		Policy string `json:"policy"`
	}
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	if err := s.SetAnalysisPolicy(l.ID, req.Policy); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"lab": l.ID, "policy": s.AnalysisPolicy(l.ID)})
}

func (s *Server) handleGetAnalysisPolicy(w http.ResponseWriter, r *http.Request, u *User) {
	l := s.labFromPath(w, r)
	if l == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"lab": l.ID, "policy": s.AnalysisPolicy(l.ID)})
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request, u *User) {
	book, ok := s.gradebook.(*grader.CourseraBook)
	if !ok {
		writeErr(w, http.StatusNotImplemented, ErrCodeNotImplemented, "gradebook does not support export")
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_, _ = w.Write([]byte(book.Export()))
}
