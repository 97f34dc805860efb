package webserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"webgpu/internal/db"
)

// post sends one JSON body straight to the server's handler.
func post(srv *Server, path string, body interface{}) *httptest.ResponseRecorder {
	raw, _ := json.Marshal(body)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
	return w
}

// TestAccountsSurviveSnapshotResyncAndPromote: login finds an account by
// its users_by_email row, and a row needs nothing to survive a snapshot,
// a replica resync or a failover. The replica attaches before the server
// exists; one account reaches it over the stream, the other two only
// through a resync. An address may contain the index tables' separator.
func TestAccountsSurviveSnapshotResyncAndPromote(t *testing.T) {
	primary := db.New()
	rep := db.NewReplica(primary)
	defer rep.Stop()
	srv := New(Config{DB: primary})

	emails := []string{"ada@example.edu", "bob|vector-add|x@example.edu", "cy@example.edu"}
	ids := map[string]string{}
	register := func(email string) {
		t.Helper()
		w := post(srv, "/api/v1/register", map[string]string{"name": email, "email": email})
		var resp struct{ User User }
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", email, w.Code, w.Body)
		}
		ids[email] = resp.User.ID
	}
	register(emails[0])
	// While a reader holds the replica, its stream goroutine can take one
	// entry and then waits for the lock, so more commits than the
	// subscription buffers (1024) are dropped: the registrations after
	// the filler never reach the replica over the stream.
	_ = rep.View(func(*db.Tx) error {
		for i := 0; i < 1100; i++ {
			if err := primary.Update(func(tx *db.Tx) error {
				return tx.Put("filler", fmt.Sprint(i), struct{}{})
			}); err != nil {
				t.Fatal(err)
			}
		}
		register(emails[1])
		register(emails[2])
		return nil
	})
	// The replica sees the gap at the next entry that does reach it, and
	// resynchronizes; a login commits a session, so log in until it has.
	for deadline := time.Now().Add(5 * time.Second); !rep.WaitCaughtUp(10 * time.Millisecond); {
		if time.Now().After(deadline) {
			t.Fatalf("replica lag %d", rep.Lag())
		}
		if w := post(srv, "/api/v1/login", map[string]string{"email": emails[0]}); w.Code != http.StatusOK {
			t.Fatalf("login on the primary: %d %s", w.Code, w.Body)
		}
	}

	var snap bytes.Buffer
	if err := primary.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := db.New()
	if err := restored.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		db   *db.DB
	}{
		{"primary", primary},
		{"snapshot", restored},
		{"promoted", rep.Promote()},
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
		{"student view", "GET", "/api/v1/instructor/student/user-000001/vector-add", "", badAnswers("user-000001"), http.StatusInternalServerError},
		// The requester is the second account registered below.
		{"submit", "POST", "/api/v1/labs/vector-add/submit", "", badAnswers("user-000002"), http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.register("stu@example.edu", "student") // user-000001
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
