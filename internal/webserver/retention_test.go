package webserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"webgpu/internal/db"
	"webgpu/internal/labs"
	"webgpu/internal/sandbox"
)

// storedRow returns a record's committed bytes.
func storedRow(t *testing.T, f *fixture, table, id string) []byte {
	t.Helper()
	var row []byte
	if err := f.srv.db.View(func(tx *db.Tx) (err error) {
		row, err = tx.AppendRow(nil, table, id)
		return err
	}); err != nil {
		t.Fatalf("%s %s: %v", table, id, err)
	}
	return row
}

// trimmedBytes is what a superseded record must be stored as: the full
// record re-encoded without traces, per-launch stats and grade feedback,
// marked trimmed. It decodes generically, so it does not share the
// handlers' record types or trimming code.
func trimmedBytes(t *testing.T, full []byte) []byte {
	t.Helper()
	var rec map[string]interface{}
	if err := json.Unmarshal(full, &rec); err != nil {
		t.Fatal(err)
	}
	var outcomes []interface{}
	if o, ok := rec["outcome"].(map[string]interface{}); ok {
		outcomes = append(outcomes, o)
	}
	if os, ok := rec["outcomes"].([]interface{}); ok {
		outcomes = append(outcomes, os...)
	}
	for _, o := range outcomes {
		o := o.(map[string]interface{})
		o["Trace"], o["Kernels"] = "", nil
	}
	if g, ok := rec["grade"].(map[string]interface{}); ok {
		delete(g, "feedback")
	}
	rec["trimmed"] = true
	return canonical(t, rec)
}

// canonical re-encodes a JSON value with sorted object keys.
func canonical(t *testing.T, v interface{}) []byte {
	t.Helper()
	if raw, ok := v.([]byte); ok {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSupersededRunsShrinkToTheirVerdict: one student submits a lab K
// times and attempts two of its datasets, sharing one attempt. Each slot
// — the lab for submissions, a dataset for attempts — keeps exactly one
// full record, the newest; every other record is stored trimmed, except
// the shared attempt, which stays as it was shared. Every response is
// the full record, and the submissions table grows by a bounded number
// of bytes per superseded submission.
func TestSupersededRunsShrinkToTheirVerdict(t *testing.T) {
	const K = 6
	// perSub bounds what one superseded vector-add submission keeps: its
	// source, grade and five verdicts without traces or stats, ≈ 1.6 KB.
	// A full one is ≈ 3.4 KB, so keeping superseded rows whole fails this.
	const perSub = 2000
	f := newFixture(t)
	token := f.register("ada@example.edu", "student")
	l := labs.ByID("vector-add")
	base := "/api/v1/labs/" + l.ID
	source := map[string]string{"source": l.Reference}

	// run posts one request and checks that its response is the full
	// record, byte for byte as stored while it is the newest.
	run := func(path string) (id string, full []byte) {
		t.Helper()
		code, body := f.req("POST", base+path, token, source)
		if code != http.StatusOK {
			t.Fatalf("POST %s = %d %s", path, code, body)
		}
		var rec struct {
			ID      string `json:"id"`
			Trimmed bool   `json:"trimmed"`
		}
		if err := json.Unmarshal(body, &rec); err != nil || rec.ID == "" || rec.Trimmed {
			t.Fatalf("POST %s: %s (%v)", path, body, err)
		}
		if !bytes.Contains(body, []byte(`"Kernels":[{`)) || bytes.Contains(body, []byte(`"Trace":""`)) {
			t.Fatalf("POST %s: the response lacks the run's trace or stats:\n%s", path, body)
		}
		table := "attempts"
		if path == "/submit" {
			table = "submissions"
		}
		full = storedRow(t, f, table, rec.ID)
		if !bytes.Equal(append(full, '\n'), body) {
			t.Fatalf("POST %s: response differs from the stored record:\n got %s\nwant %s", path, body, full)
		}
		return rec.ID, full
	}
	tableBytes := func() (n int) {
		_ = f.srv.db.View(func(tx *db.Tx) error {
			tx.Scan("submissions", func(_ string, raw json.RawMessage) bool {
				n += len(raw)
				return true
			})
			return nil
		})
		return n
	}

	var subs []string
	fullSub := map[string][]byte{}
	for k := 1; k <= K; k++ {
		f.clk.Advance(sandbox.DefaultLimits().SubmitInterval)
		id, full := run("/submit")
		subs, fullSub[id] = append(subs, id), full
		grew, bound := tableBytes()-len(full), (k-1)*perSub
		if grew > bound {
			t.Errorf("after %d submissions the superseded ones hold %d bytes, want ≤ %d (%d a row)", k, grew, bound, perSub)
		}
		if k == K {
			t.Logf("a full submission is %d bytes, a superseded one %d", len(full), grew/(K-1))
		}
	}

	// Attempts on datasets 0 and 1, interleaved; the first on dataset 0
	// is shared before anything supersedes it.
	var atts []string
	fullAtt := map[string][]byte{}
	slotOf := map[string]int{}
	for i := 0; i < 6; i++ {
		ds := i % 2
		id, full := run(fmt.Sprintf("/attempt?dataset=%d", ds))
		atts, fullAtt[id], slotOf[id] = append(atts, id), full, ds
		if i == 0 {
			if code, body := f.req("POST", "/api/v1/attempts/"+id+"/share", token, nil); code != http.StatusOK {
				t.Fatalf("share: %d %s", code, body)
			}
			fullAtt[id] = storedRow(t, f, "attempts", id)
		}
	}
	shared := atts[0]

	check := func(table, id string, full []byte, newest bool) {
		t.Helper()
		got := storedRow(t, f, table, id)
		switch {
		case newest || id == shared:
			if !bytes.Equal(got, full) {
				t.Errorf("%s %s (newest %v, shared %v) changed:\n got %s\nwant %s", table, id, newest, id == shared, got, full)
			}
		default:
			if want := trimmedBytes(t, full); !bytes.Equal(canonical(t, got), want) {
				t.Errorf("%s %s is not its trimmed form:\n got %s\nwant %s", table, id, canonical(t, got), want)
			}
			if bytes.Contains(got, []byte(`"Kernels":[`)) || !bytes.Contains(got, []byte(`"trimmed":true`)) {
				t.Errorf("%s %s: superseded row keeps its stats or is unmarked: %s", table, id, got)
			}
		}
	}
	for i, id := range subs {
		check("submissions", id, fullSub[id], i == len(subs)-1)
	}
	newestAtt := map[int]string{}
	for _, id := range atts {
		newestAtt[slotOf[id]] = id
	}
	for _, id := range atts {
		check("attempts", id, fullAtt[id], newestAtt[slotOf[id]] == id)
	}
	if len(newestAtt) != 2 {
		t.Fatalf("attempt slots = %v, want datasets 0 and 1", newestAtt)
	}
	// The shared link still shows the whole attempt.
	var tok struct {
		ShareTok string `json:"share_token"`
	}
	_ = json.Unmarshal(fullAtt[shared], &tok)
	if code, body := f.req("GET", "/api/v1/share/"+tok.ShareTok, "", nil); code != http.StatusOK ||
		!bytes.Equal(body, append(fullAtt[shared], '\n')) {
		t.Errorf("shared link = %d %s, want the attempt as shared", code, body)
	}
}

// TestNewestRecordPastAMillionIDs: IDs keep issue order once the counter
// passes 999 999, so the hints route reads the student's last attempt and
// the roster dates each student by their last submission.
func TestNewestRecordPastAMillionIDs(t *testing.T) {
	f := newFixture(t)
	f.srv.nextID.Store(999_990)
	token := f.register("ada@example.edu", "student")
	prof := f.register("prof@example.edu", "instructor")
	l := labs.ByID("vector-add")
	base := "/api/v1/labs/" + l.ID
	var lastAtt, lastAt string
	for i := 0; i < 12; i++ {
		path := "/attempt?dataset=0"
		if i%4 == 3 {
			f.clk.Advance(sandbox.DefaultLimits().SubmitInterval)
			path = "/submit"
		}
		code, body := f.req("POST", base+path, token, map[string]string{"source": l.Reference})
		if code != http.StatusOK {
			t.Fatalf("POST %s = %d %s", path, code, body)
		}
		var rec struct {
			ID string    `json:"id"`
			At time.Time `json:"at"`
		}
		_ = json.Unmarshal(body, &rec)
		if path == "/submit" {
			lastAt = rec.At.Format("2006-01-02 15:04:05")
		} else {
			lastAtt = rec.ID
		}
	}
	if f.srv.nextID.Load() <= 1_000_000 {
		t.Fatalf("the counter ended at %d, short of a million", f.srv.nextID.Load())
	}

	_, body := f.req("GET", base+"/hints", token, nil)
	var hints struct {
		Attempt string `json:"attempt"`
	}
	if err := json.Unmarshal(body, &hints); err != nil || hints.Attempt != lastAtt {
		t.Errorf("hints read attempt %q, want the last one, %q (%s)", hints.Attempt, lastAtt, body)
	}
	_, body = f.req("GET", "/api/v1/instructor/roster/"+l.ID, prof, nil)
	var roster []RosterRow
	if err := json.Unmarshal(body, &roster); err != nil || len(roster) != 1 || roster[0].LastSubmitted != lastAt {
		t.Errorf("roster = %s, want one row last submitted at %s", body, lastAt)
	}
}
