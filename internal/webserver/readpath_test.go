package webserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/db"
	"webgpu/internal/feedback"
	"webgpu/internal/grader"
	"webgpu/internal/labs"
	"webgpu/internal/peerreview"
	"webgpu/internal/sandbox"
	"webgpu/internal/worker"
)

// ---- The whole-table scans the handlers used before the indexed read
// path, kept as the oracle the new responses must equal byte for byte.

func oracleAttemptsFor(s *Server, userID, labID string) []AttemptRec {
	var out []AttemptRec
	_ = s.db.View(func(tx *db.Tx) error {
		tx.Scan("attempts", func(k string, raw json.RawMessage) bool {
			var a AttemptRec
			if err := json.Unmarshal(raw, &a); err == nil && a.UserID == userID && a.LabID == labID {
				out = append(out, a)
			}
			return true
		})
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func oracleHistory(tx *db.Tx, userID, labID string) []CodeRec {
	var out []CodeRec
	prefix := userID + "|" + labID + "|"
	for _, k := range tx.Keys("history") {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			var rec CodeRec
			if err := tx.Get("history", k, &rec); err == nil {
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rev < out[j].Rev })
	return out
}

func oraclePaginated[T any](items []T, p page) map[string]interface{} {
	total := len(items)
	lo := p.Offset
	if lo > total {
		lo = total
	}
	hi := total
	if p.Limit > 0 && lo+p.Limit < hi {
		hi = lo + p.Limit
	}
	window := items[lo:hi]
	if window == nil {
		window = []T{}
	}
	return map[string]interface{}{"total": total, "limit": p.Limit, "offset": p.Offset, "items": window}
}

func oracleHints(s *Server, userID string, l *labs.Lab) map[string]interface{} {
	attempts := oracleAttemptsFor(s, userID, l.ID)
	var last *labs.Outcome
	var lastAttemptID string
	if len(attempts) > 0 {
		last = attempts[len(attempts)-1].Outcome
		lastAttemptID = attempts[len(attempts)-1].ID
	}
	source, _ := s.loadSource(userID, l)
	return map[string]interface{}{
		"attempt": lastAttemptID,
		"hints":   feedback.Analyze(l, source, last),
	}
}

func oracleRoster(s *Server, l *labs.Lab) []*RosterRow {
	rows := map[string]*RosterRow{}
	_ = s.db.View(func(tx *db.Tx) error {
		tx.Scan("attempts", func(k string, raw json.RawMessage) bool {
			var a AttemptRec
			if json.Unmarshal(raw, &a) == nil && a.LabID == l.ID {
				row := rows[a.UserID]
				if row == nil {
					row = &RosterRow{UserID: a.UserID, MaxGrade: l.MaxPoints()}
					rows[a.UserID] = row
				}
				row.Attempts++
			}
			return true
		})
		tx.Scan("submissions", func(k string, raw json.RawMessage) bool {
			var sub SubmissionRec
			if json.Unmarshal(raw, &sub) == nil && sub.LabID == l.ID {
				row := rows[sub.UserID]
				if row == nil {
					row = &RosterRow{UserID: sub.UserID, MaxGrade: l.MaxPoints()}
					rows[sub.UserID] = row
				}
				row.Submissions++
				row.LastSubmitted = sub.At.Format("2006-01-02 15:04:05")
			}
			return true
		})
		for uid, row := range rows {
			var usr User
			if err := tx.Get("users", uid, &usr); err == nil {
				row.Name, row.Email = usr.Name, usr.Email
			}
			var g grader.Grade
			if err := tx.Get("grades", codeKey(uid, l.ID), &g); err == nil {
				row.Grade = &g
				row.ProgramGrade = g.Compile + g.Datasets + g.Keywords
				row.QuestionGrade = g.Questions
				row.TotalGrade = g.Total
			}
		}
		return nil
	})
	out := make([]*RosterRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UserID < out[j].UserID })
	return out
}

func oracleStudentDetail(s *Server, userID string, l *labs.Lab) map[string]interface{} {
	var student User
	var history []CodeRec
	var submissions []SubmissionRec
	var answers AnswersRec
	var grade *grader.Grade
	var comments []CommentRec
	_ = s.db.View(func(tx *db.Tx) error {
		_ = tx.Get("users", userID, &student)
		history = oracleHistory(tx, userID, l.ID)
		tx.Scan("submissions", func(k string, raw json.RawMessage) bool {
			var sub SubmissionRec
			if json.Unmarshal(raw, &sub) == nil && sub.UserID == userID && sub.LabID == l.ID {
				submissions = append(submissions, sub)
			}
			return true
		})
		_ = tx.Get("answers", codeKey(userID, l.ID), &answers)
		var g grader.Grade
		if err := tx.Get("grades", codeKey(userID, l.ID), &g); err == nil {
			grade = &g
		}
		tx.Scan("comments", func(k string, raw json.RawMessage) bool {
			var c CommentRec
			if json.Unmarshal(raw, &c) == nil && c.UserID == userID && c.LabID == l.ID {
				comments = append(comments, c)
			}
			return true
		})
		return nil
	})
	sort.Slice(submissions, func(i, j int) bool { return submissions[i].ID < submissions[j].ID })
	return map[string]interface{}{
		"student":     student,
		"lab":         l.ID,
		"history":     history,
		"submissions": submissions,
		"attempts":    oracleAttemptsFor(s, userID, l.ID),
		"answers":     answers,
		"grade":       grade,
		"comments":    comments,
		"questions":   l.Questions,
	}
}

// ---- A course-sized database, filled through the real write handlers.

// cannedDispatcher answers most jobs at once with a passing outcome per
// dataset, so filling hundreds of attempts costs no kernel execution;
// every 16th job runs on a real node, so the stored rows also carry what
// a worker really produces (traces, kernel counters, diagnostics).
func cannedDispatcher() Dispatcher {
	node := worker.NewNode(worker.DefaultNodeConfig("test-worker"))
	var jobs atomic.Int64
	return DispatcherFunc(func(ctx context.Context, job *worker.Job) (*worker.Result, error) {
		if jobs.Add(1)%16 == 0 {
			return node.Execute(ctx, job), nil
		}
		res := &worker.Result{JobID: job.ID, WorkerID: "canned"}
		first, n := job.DatasetID, 1
		if job.DatasetID == worker.DatasetAll {
			first, n = 0, labs.ByID(job.LabID).NumDatasets
		}
		for i := 0; i < n; i++ {
			res.Outcomes = append(res.Outcomes, &labs.Outcome{LabID: job.LabID, DatasetID: first + i,
				Compiled: true, Ran: true, Correct: true})
		}
		return res, nil
	})
}

type course struct {
	*fixture
	users      []string // user IDs, index-aligned with tokens
	tokens     []string
	instructor string
	labs       []*labs.Lab
}

// do sends one request and returns the body of the expected response.
func (c *course) do(method, path, token string, body interface{}, want int) []byte {
	c.t.Helper()
	code, data := c.req(method, path, token, body)
	if code != want {
		c.t.Fatalf("%s %s = %d %s", method, path, code, data)
	}
	return data
}

// tickClock reads step later at every Now.
type tickClock struct {
	*clock.Manual
	step time.Duration
}

func (c tickClock) Now() time.Time {
	c.Advance(c.step)
	return c.Manual.Now()
}

// fillCourse registers nUsers students and gives each a seeded, uneven
// amount of saves, attempts, submissions, shares and comments on each of
// three labs (none at all on some), in an interleaved order so no table's
// IDs are grouped by student.
func fillCourse(tb testing.TB, nUsers int, seed int64) *course {
	c := &course{fixture: &fixture{t: tb}}
	// Every reading of the clock is a minute later: distinct timestamps,
	// and the per-user submit rate limit never trips.
	clk := tickClock{clock.NewManual(time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC)), time.Minute}
	c.srv = New(Config{
		DB:         db.New(),
		Dispatcher: cannedDispatcher(),
		Gradebook:  grader.NewCourseraBook("test"),
		Reviews:    peerreview.NewStore(0.10),
		Course:     labs.CourseHPP,
		Limits:     sandbox.DefaultLimits(),
		Clock:      clk,
	})
	c.ts = httptest.NewServer(c.srv.Handler())
	tb.Cleanup(c.ts.Close)
	do := c.do
	register := func(email, role string) (id, token string) {
		var resp struct {
			User  User   `json:"user"`
			Token string `json:"token"`
		}
		body := do("POST", "/api/v1/register", "", map[string]string{"name": email, "email": email, "role": role}, http.StatusCreated)
		_ = json.Unmarshal(body, &resp)
		return resp.User.ID, resp.Token
	}
	_, c.instructor = register("prof@example.edu", "instructor")
	for i := 0; i < nUsers; i++ {
		id, token := register(fmt.Sprintf("s%02d@example.edu", i), "student")
		c.users, c.tokens = append(c.users, id), append(c.tokens, token)
	}
	c.labs = []*labs.Lab{labs.ByID("vector-add"), labs.ByID("basic-matmul"), labs.ByID("tiled-matmul")}

	type op struct {
		user int
		lab  *labs.Lab
		kind int // 0 save, 1 attempt, 2 submit, 3 comment
	}
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for u := range c.users {
		for _, l := range c.labs {
			if rng.Intn(8) == 0 {
				continue // this student never opened this lab
			}
			for kind, n := range []int{rng.Intn(5), rng.Intn(5), rng.Intn(3), rng.Intn(2)} {
				for i := 0; i < n; i++ {
					ops = append(ops, op{u, l, kind})
				}
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i, o := range ops {
		base := "/api/v1/labs/" + o.lab.ID
		src := map[string]string{"source": fmt.Sprintf("%s\n// edit %d", o.lab.Skeleton, i)}
		switch o.kind {
		case 0:
			do("POST", base+"/save", c.tokens[o.user], src, http.StatusOK)
		case 1:
			body := do("POST", fmt.Sprintf("%s/attempt?dataset=%d", base, i%o.lab.NumDatasets), c.tokens[o.user], src, http.StatusOK)
			if i%7 == 0 { // sharing re-puts the attempt row
				var att AttemptRec
				_ = json.Unmarshal(body, &att)
				do("POST", "/api/v1/attempts/"+att.ID+"/share", c.tokens[o.user], nil, http.StatusOK)
			}
		case 2:
			do("POST", base+"/submit", c.tokens[o.user], src, http.StatusOK)
		case 3:
			do("POST", "/api/v1/instructor/comment", c.instructor, map[string]string{
				"user_id": c.users[o.user], "lab_id": o.lab.ID, "text": fmt.Sprintf("comment %d", i)}, http.StatusCreated)
		}
	}
	return c
}

// encoded renders v exactly as writeJSON does.
func encoded(v interface{}) string {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v)
	return buf.String()
}

// TestIndexedReadsMatchScanOracle: on a course of 50 students × 3 labs,
// every page that moved off the whole-table scans answers byte for byte
// what the scans answer.
func TestIndexedReadsMatchScanOracle(t *testing.T) {
	c := fillCourse(t, 50, 14)
	get := func(path, token string) string {
		t.Helper()
		return string(c.do("GET", path, token, nil, http.StatusOK))
	}
	same := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s differs from the scan oracle:\n got %s\nwant %s", what, got, want)
		}
	}
	pages := []page{{Limit: DefaultPageLimit}}
	for _, limit := range []int{0, 1, 3, 100} {
		for _, offset := range []int{0, 2, 5, 50} { // inside, at and past the end
			pages = append(pages, page{Limit: limit, Offset: offset})
		}
	}
	var attempts, revisions int
	for u, userID := range c.users {
		for _, l := range c.labs {
			base := "/api/v1/labs/" + l.ID
			var history []CodeRec
			_ = c.srv.db.View(func(tx *db.Tx) error { history = oracleHistory(tx, userID, l.ID); return nil })
			atts := oracleAttemptsFor(c.srv, userID, l.ID)
			attempts, revisions = attempts+len(atts), revisions+len(history)
			for i, p := range pages {
				query := fmt.Sprintf("?limit=%d&offset=%d", p.Limit, p.Offset)
				if i == 0 {
					query = "" // the default page
				}
				same(userID+" "+l.ID+" history"+query, get(base+"/history"+query, c.tokens[u]), encoded(oraclePaginated(history, p)))
				same(userID+" "+l.ID+" attempts"+query, get(base+"/attempts"+query, c.tokens[u]), encoded(oraclePaginated(atts, p)))
			}
			same(userID+" "+l.ID+" hints", get(base+"/hints", c.tokens[u]), encoded(oracleHints(c.srv, userID, l)))
			same(userID+" "+l.ID+" student view",
				get("/api/v1/instructor/student/"+userID+"/"+l.ID, c.instructor),
				encoded(oracleStudentDetail(c.srv, userID, l)))
		}
	}
	for _, l := range c.labs {
		same(l.ID+" roster", get("/api/v1/instructor/roster/"+l.ID, c.instructor), encoded(oracleRoster(c.srv, l)))
	}
	// Login's index against a scan of the users table: one users_by_email
	// row per user, under that user's address, and none left dangling.
	_ = c.srv.db.View(func(tx *db.Tx) error {
		users := 0
		tx.Scan("users", func(id string, raw json.RawMessage) bool {
			users++
			var usr User
			var ref emailRef
			if err := json.Unmarshal(raw, &usr); err != nil {
				t.Errorf("user %s: %v", id, err)
			} else if err := tx.Get(usersByEmail, usr.Email, &ref); err != nil || ref.ID != id {
				t.Errorf("user %s: users_by_email[%q] = %q, %v", id, usr.Email, ref.ID, err)
			}
			return true
		})
		if n := tx.Count(usersByEmail); n != users || users != len(c.users)+1 {
			t.Errorf("%d users_by_email rows for %d users (%d registered)", n, users, len(c.users)+1)
		}
		return nil
	})
	// The fill must actually have exercised the ranges.
	if attempts < 200 || revisions < 400 {
		t.Fatalf("fill too small to mean anything: %d attempts, %d revisions", attempts, revisions)
	}
}

// BenchmarkAttemptsPage is the Attempts tab over the benchmark's fill:
// 500 attempts spread over 50 students, one student's page per op.
func BenchmarkAttemptsPage(b *testing.B) {
	c := fillCourse(b, 50, 14)
	// Top the attempts table up to 500 rows, round-robin over students.
	var have int
	_ = c.srv.db.View(func(tx *db.Tx) error { have = tx.Count("attempts"); return nil })
	l := c.labs[0]
	for i := have; i < 500; i++ {
		u := &User{ID: c.users[i%len(c.users)]}
		att := AttemptRec{ID: c.srv.newID("att"), UserID: u.ID, LabID: l.ID, Source: l.Skeleton, At: c.srv.clock.Now()}
		if err := c.srv.db.Update(func(tx *db.Tx) error {
			return putIndexed(tx, "attempts", l.ID, u.ID, att.ID, att)
		}); err != nil {
			b.Fatal(err)
		}
	}
	req := httptest.NewRequest("GET", "/api/v1/labs/"+l.ID+"/attempts", nil)
	req.Header.Set("Authorization", "Bearer "+c.tokens[0])
	h := c.srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("GET attempts = %d %s", rec.Code, rec.Body)
		}
	}
}
