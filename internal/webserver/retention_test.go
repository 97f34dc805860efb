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
// record re-encoded without its outcomes' lab IDs, traces and per-launch
// stats, without its grade's feedback and IDs, and without its source when
// it names a history revision (rev above 0), marked trimmed. It decodes
// generically, so it does not share the handlers' record types or
// trimming code.
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
		delete(o, "LabID")
		delete(o, "Trace")
		delete(o, "Kernels")
	}
	if g, ok := rec["grade"].(map[string]interface{}); ok {
		delete(g, "feedback")
		delete(g, "user_id")
		delete(g, "lab_id")
		delete(g, "submission_id")
	}
	if rev, _ := rec["rev"].(float64); rev > 0 {
		delete(rec, "source")
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
	// grade and five verdicts without traces, stats or the source its
	// history revision holds, ≈ 1.0 KB. A full one is ≈ 3.4 KB, and one
	// that keeps its source ≈ 1.6 KB, so either fails this.
	const perSub = 1200
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
		if !bytes.Contains(body, []byte(`"Kernels":[{`)) || !bytes.Contains(body, []byte(`"Trace":"`)) {
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

// TestTrimmedRecordsResolveToTheirSource: one student saves, attempts and
// submits with and without a source in the request body, submits once
// before any save, and shares one attempt before a newer one supersedes
// it. Every superseded record either names the history revision that
// holds, byte for byte, the source its run executed, or (the skeleton
// ran: rev 0) keeps that source itself; the shared attempt stays whole,
// and one shared after it was superseded shows its source again.
func TestTrimmedRecordsResolveToTheirSource(t *testing.T) {
	f := newFixture(t)
	token := f.register("ada@example.edu", "student")
	l := labs.ByID("vector-add")
	base := "/api/v1/labs/" + l.ID
	variant := func(n int) string { return fmt.Sprintf("// revision %d\n%s", n, l.Reference) }

	type run struct {
		table, slot string
		source      string // what the run executed
		rev         int    // the revision that holds it; 0: the skeleton
		full        []byte // the record while it is the newest
	}
	var runs []*run
	rev, saved := 0, l.Skeleton
	// post runs one attempt or submit, with body as the request's source
	// ("" sends none), and keeps the record as first stored.
	post := func(path, body string) *run {
		t.Helper()
		var req interface{}
		if body != "" {
			rev, saved = rev+1, body
			req = map[string]string{"source": body}
		}
		if path == "/submit" {
			f.clk.Advance(sandbox.DefaultLimits().SubmitInterval)
		}
		code, resp := f.req("POST", base+path, token, req)
		if code != http.StatusOK {
			t.Fatalf("POST %s = %d %s", path, code, resp)
		}
		var rec struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(resp, &rec); err != nil {
			t.Fatal(err)
		}
		r := &run{table: "attempts", slot: path, source: saved, rev: rev}
		if path == "/submit" {
			r.table = "submissions"
		}
		r.full = storedRow(t, f, r.table, rec.ID)
		runs = append(runs, r)
		return r
	}
	save := func(src string) {
		t.Helper()
		if code, body := f.req("POST", base+"/save", token, map[string]string{"source": src}); code != http.StatusOK {
			t.Fatalf("save: %d %s", code, body)
		}
		rev, saved = rev+1, src
	}

	post("/submit", "")            // before any save: the skeleton, rev 0
	post("/attempt?dataset=0", "") // the skeleton again
	save(variant(1))
	late := post("/attempt?dataset=0", "") // revision 1, from the code row
	post("/attempt?dataset=0", variant(2))
	post("/submit", variant(3))
	post("/submit", "") // revision 3, from the code row
	shared := post("/attempt?dataset=1", "")
	var att struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(shared.full, &att)
	if code, body := f.req("POST", "/api/v1/attempts/"+att.ID+"/share", token, nil); code != http.StatusOK {
		t.Fatalf("share: %d %s", code, body)
	}
	shared.full = storedRow(t, f, "attempts", att.ID)
	save(variant(4))
	post("/attempt?dataset=1", variant(5))
	post("/attempt?dataset=0", "")
	post("/submit", "")
	// The newest record of each slot, which nothing supersedes.
	newest := map[string]*run{}
	for _, r := range runs {
		newest[r.slot] = r
	}

	var inline, resolved int
	for _, r := range runs {
		var full, got struct {
			ID      string  `json:"id"`
			UserID  string  `json:"user_id"`
			Source  *string `json:"source"`
			Rev     int     `json:"rev"`
			Trimmed bool    `json:"trimmed"`
		}
		if err := json.Unmarshal(r.full, &full); err != nil || full.Source == nil {
			t.Fatalf("full record %s lacks its source (%v)", r.full, err)
		}
		if *full.Source != r.source || full.Rev != r.rev {
			t.Fatalf("%s %s records rev %d and its source, want rev %d and the source it was sent or saved", r.table, full.ID, full.Rev, r.rev)
		}
		row := storedRow(t, f, r.table, full.ID)
		if newest[r.slot] == r || r == shared {
			if !bytes.Equal(row, r.full) {
				t.Errorf("%s %s (newest or shared) changed:\n got %s\nwant %s", r.table, full.ID, row, r.full)
			}
			continue
		}
		if err := json.Unmarshal(row, &got); err != nil || !got.Trimmed || got.Rev != full.Rev {
			t.Fatalf("%s %s is not trimmed with rev %d: %s (%v)", r.table, full.ID, full.Rev, row, err)
		}
		if got.Rev == 0 {
			if got.Source == nil || *got.Source != *full.Source {
				t.Errorf("%s %s ran the skeleton but does not keep it: %s", r.table, full.ID, row)
			}
			inline++
			continue
		}
		if got.Source != nil {
			t.Errorf("%s %s keeps a second copy of revision %d's source", r.table, full.ID, got.Rev)
		}
		var hist CodeRec
		if err := f.srv.db.View(func(tx *db.Tx) error {
			return tx.Get("history", histKey(full.UserID, l.ID, got.Rev), &hist)
		}); err != nil {
			t.Fatalf("%s %s: history revision %d: %v", r.table, full.ID, got.Rev, err)
		}
		if hist.Source != *full.Source {
			t.Errorf("%s %s: history revision %d holds\n%q\nbut the run executed\n%q", r.table, full.ID, got.Rev, hist.Source, *full.Source)
		}
		resolved++
	}
	if inline != 2 || resolved != 4 {
		t.Errorf("%d superseded records kept the skeleton and %d resolved through history, want 2 and 4", inline, resolved)
	}

	// Shared once superseded, an attempt carries its source again: the
	// link's viewer cannot read the owner's history.
	var ref struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(late.full, &ref)
	code, body := f.req("POST", "/api/v1/attempts/"+ref.ID+"/share", token, nil)
	var link struct {
		URL string `json:"url"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &link) != nil {
		t.Fatalf("share a superseded attempt: %d %s", code, body)
	}
	code, body = f.req("GET", link.URL, "", nil)
	var view struct {
		Source string `json:"source"`
		Rev    int    `json:"rev"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &view) != nil || view.Source != late.source || view.Rev != late.rev {
		t.Errorf("a superseded attempt's share link = %d %s, want revision %d's source", code, body, late.rev)
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
