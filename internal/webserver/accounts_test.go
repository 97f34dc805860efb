package webserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webgpu/internal/db"
	"webgpu/internal/grader"
)

// post sends one JSON body straight to the server's handler.
func post(srv *Server, path string, body interface{}) *httptest.ResponseRecorder {
	raw, _ := json.Marshal(body)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
	return w
}

// TestAccountsSurviveSnapshotAndReplay: login finds an account by its
// users_by_email row, and a row needs nothing to survive a snapshot or a
// rebuild from the WAL. The WAL attaches before the server exists, so the
// replayed database is rebuilt from every commit the server made. An
// address may contain the index tables' separator.
func TestAccountsSurviveSnapshotAndReplay(t *testing.T) {
	primary := db.New()
	var wal bytes.Buffer
	primary.AttachWAL(db.NewWAL(&wal))
	srv := New(Config{DB: primary})

	emails := []string{"ada@example.edu", "bob|vector-add|x@example.edu", "cy@example.edu"}
	ids := map[string]string{}
	for _, email := range emails {
		w := post(srv, "/api/v1/register", map[string]string{"name": email, "email": email})
		var resp struct{ User User }
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", email, w.Code, w.Body)
		}
		ids[email] = resp.User.ID
	}

	var snap bytes.Buffer
	if err := primary.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := db.New()
	if err := restored.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	replayed := db.New()
	if err := replayed.Replay(bytes.NewReader(wal.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		db   *db.DB
	}{
		{"primary", primary},
		{"snapshot", restored},
		{"replayed", replayed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{DB: tc.db})
			for _, email := range emails {
				w := post(srv, "/api/v1/login", map[string]string{"email": email})
				var resp struct{ User User }
				_ = json.Unmarshal(w.Body.Bytes(), &resp)
				if w.Code != http.StatusOK || resp.User.ID != ids[email] || resp.User.Email != email {
					t.Errorf("login %s: %d, user %+v; want 200, id %s", email, w.Code, resp.User, ids[email])
				}
				if w := post(srv, "/api/v1/register", map[string]string{"name": "again", "email": email}); w.Code != http.StatusConflict {
					t.Errorf("second register of %s: %d %s; want 409", email, w.Code, w.Body)
				}
			}
			// A prefix of a registered address is nobody's account.
			for _, email := range []string{"nobody@example.edu", "bob", "bob|vector-add|"} {
				if w := post(srv, "/api/v1/login", map[string]string{"email": email}); w.Code != http.StatusNotFound {
					t.Errorf("login %s: %d %s; want 404", email, w.Code, w.Body)
				}
			}
		})
	}
}

// TestAccountErrorsSayWhatHappened: a store that fails is reported as
// internal, never as "email already registered" (409) and never as a page
// with a part silently missing. Register and login find the database
// closed; the instructor's student view and a submit meet an answers row
// they cannot decode, which is not the same as no answers — the submit
// must not write a grade that scores the questions as unanswered.
func TestAccountErrorsSayWhatHappened(t *testing.T) {
	closeDB := func(f *fixture) { f.srv.db.Close() }
	badAnswers := func(userID string) func(*fixture) {
		return func(f *fixture) {
			if err := f.srv.db.Update(func(tx *db.Tx) error {
				return tx.Put("answers", codeKey(userID, "vector-add"), map[string]string{"answers": "not a list"})
			}); err != nil {
				f.t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name, method, path, body string
		damage                   func(*fixture)
		want                     int
	}{
		{"register", "POST", "/api/v1/register", `{"name":"New","email":"new@example.edu"}`, closeDB, http.StatusServiceUnavailable},
		{"login", "POST", "/api/v1/login", `{"email":"stu@example.edu"}`, closeDB, http.StatusServiceUnavailable},
		{"student view", "GET", "/api/v1/instructor/student/user-000000000001/vector-add", "", badAnswers("user-000000000001"), http.StatusInternalServerError},
		// The requester is the second account registered below.
		{"submit", "POST", "/api/v1/labs/vector-add/submit", "", badAnswers("user-000000000002"), http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.register("stu@example.edu", "student") // user-000000000001
			token := f.register("prof@example.edu", "instructor")
			tc.damage(f)
			code, raw := f.reqRaw(tc.method, tc.path, token, tc.body)
			var body ErrorBody
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatalf("body %q: %v", raw, err)
			}
			if code != tc.want || body.Error.Code != ErrCodeInternal {
				t.Errorf("status %d, code %q (%s); want %d, %q", code, body.Error.Code, body.Error.Message, tc.want, ErrCodeInternal)
			}
			_ = f.srv.db.View(func(tx *db.Tx) error { // fails on the closed store, which holds no grade either
				if n := tx.Count("grades"); n != 0 {
					t.Errorf("%d grade rows written by a request that failed", n)
				}
				return nil
			})
		})
	}
}

// failingGradebook refuses every write-back.
type failingGradebook struct{ nullGradebook }

func (failingGradebook) Record(*grader.Grade) error { return errors.New("gradebook offline") }

// TestInstructorErrorsSayWhatHappened: the instructor's views treat only a
// missing row as absent. A submission, account or grade row that does not
// decode fails the roster and the student view with 500 internal instead
// of leaving a hole in the page, and an override whose gradebook write-back
// fails says so, as a submit does.
func TestInstructorErrorsSayWhatHappened(t *testing.T) {
	const student = "user-000000000001"
	put := func(table, key string, v interface{}) func(*fixture) {
		return func(f *fixture) {
			if err := f.srv.db.Update(func(tx *db.Tx) error { return tx.Put(table, key, v) }); err != nil {
				f.t.Fatal(err)
			}
		}
	}
	submitted := func(rec interface{}) func(*fixture) { // the student's one submission
		return func(f *fixture) {
			if err := f.srv.db.Update(func(tx *db.Tx) error {
				return putIndexed(tx, "submissions", "vector-add", student, "sub-000001", rec)
			}); err != nil {
				f.t.Fatal(err)
			}
		}
	}
	goodSub := SubmissionRec{ID: "sub-000001", UserID: student, LabID: "vector-add"}
	badGrade := put("grades", codeKey(student, "vector-add"), map[string]string{"total": "not a number"})
	both := func(ds ...func(*fixture)) func(*fixture) {
		return func(f *fixture) {
			for _, d := range ds {
				d(f)
			}
		}
	}
	for _, tc := range []struct {
		name, method, path, body string
		damage                   func(*fixture)
		want                     int
		message                  string // names the row that failed
	}{
		{"roster submission", "GET", "/api/v1/instructor/roster/vector-add", "",
			submitted(map[string]string{"at": "not a time"}), http.StatusInternalServerError, "parsing time"},
		{"roster user", "GET", "/api/v1/instructor/roster/vector-add", "",
			both(submitted(goodSub), put("users", student, map[string]int{"name": 1})), http.StatusInternalServerError, "User.name"},
		{"roster grade", "GET", "/api/v1/instructor/roster/vector-add", "",
			both(submitted(goodSub), badGrade), http.StatusInternalServerError, "Grade.total"},
		{"student view grade", "GET", "/api/v1/instructor/student/" + student + "/vector-add", "",
			badGrade, http.StatusInternalServerError, "Grade.total"},
		{"override gradebook", "POST", "/api/v1/instructor/override", `{"user_id":"` + student + `","lab_id":"vector-add","total":5}`,
			func(f *fixture) {
				put("grades", codeKey(student, "vector-add"), grader.Grade{UserID: student, LabID: "vector-add"})(f)
				f.srv.gradebook = failingGradebook{}
			}, http.StatusInternalServerError, "gradebook offline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.register("stu@example.edu", "student") // user-000000000001
			token := f.register("prof@example.edu", "instructor")
			tc.damage(f)
			code, raw := f.reqRaw(tc.method, tc.path, token, tc.body)
			var body ErrorBody
			_ = json.Unmarshal(raw, &body)
			if code != tc.want || body.Error.Code != ErrCodeInternal || !strings.Contains(body.Error.Message, tc.message) {
				t.Errorf("status %d, body %s; want %d, %q naming %q", code, raw, tc.want, ErrCodeInternal, tc.message)
			}
		})
	}
}
