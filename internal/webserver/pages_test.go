package webserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"webgpu/internal/db"
	"webgpu/internal/grader"
	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
)

// ---- The read path the pages had before they served committed bytes:
// decode every row of the window, marshal the response. Kept as the oracle
// the served bytes must equal.

func oracleLoadRecords[T any](tx *db.Tx, table string, keys []string) []T {
	var out []T
	for _, k := range keys {
		var rec T
		if err := tx.Get(table, k, &rec); err == nil {
			out = append(out, rec)
		}
	}
	return out
}

func oracleReadPage[T any](s *Server, table string, p page, keys func(tx *db.Tx) []string) string {
	var total int
	var window []T
	_ = s.db.View(func(tx *db.Tx) error {
		ks := keys(tx)
		total = len(ks)
		lo := p.Offset
		if lo > total {
			lo = total
		}
		hi := total
		if p.Limit > 0 && lo+p.Limit < hi {
			hi = lo + p.Limit
		}
		window = oracleLoadRecords[T](tx, table, ks[lo:hi])
		return nil
	})
	if window == nil {
		window = []T{}
	}
	return encoded(map[string]interface{}{"total": total, "limit": p.Limit, "offset": p.Offset, "items": window})
}

// TestPagesAreByteIdenticalToReencoding: history, attempts, grade and the
// instructor's student view serve stored rows undecoded, and the body is,
// byte for byte, what decoding every row and marshaling the response gives
// — over sources that exercise every escape encoding/json applies, every
// window shape, and a dangling index row (counted in total, absent from
// items).
func TestPagesAreByteIdenticalToReencoding(t *testing.T) {
	f := newFixture(t)
	token := f.register("ada@example.edu", "student")
	prof := f.register("prof@example.edu", "instructor")
	l := labs.ByID("vector-add")
	var ref emailRef
	if err := f.srv.db.View(func(tx *db.Tx) error { return tx.Get(usersByEmail, "ada@example.edu", &ref) }); err != nil {
		t.Fatal(err)
	}
	userID := ref.ID

	// What a client sends as invalid UTF-8 goes through the write handlers:
	// the request decoder has made it U+FFFD before it is stored.
	invalid := "{\"source\":\"invalid \xff\xfe utf-8, truncated \xc3\"}"
	base := "/api/v1/labs/" + l.ID
	for _, path := range []string{"/save", "/attempt"} {
		if code, body := f.reqRaw("POST", base+path, token, invalid); code != http.StatusOK {
			t.Fatalf("POST %s = %d %s", path, code, body)
		}
	}
	sources := []string{
		l.Skeleton,
		"<script>alert('x')</script> && a < b > c",
		"line\u2028separator\u2029paragraph\ttab\x00nul\x7f",
		"int café = 1; // é ü 日本語 \U0001F600 \ufffd",
		strings.Repeat("// 0123456789 <&> \"quoted\" \\ back\n", 60_000/36+1),
	}
	// head cuts s to at most n bytes without splitting a rune.
	head := func(s string, n int) string { return strings.ToValidUTF8(s[:min(len(s), n)], "") }
	// The rest are written the way the write handlers write them: tx.Put
	// of the record struct, with its by-lab index row.
	err := f.srv.db.Update(func(tx *db.Tx) error {
		for i, src := range sources {
			f.now = f.now.Add(1234567891 * 7) // sub-second digits, trimmed differently per row
			rec := CodeRec{UserID: userID, LabID: l.ID, Source: src, Rev: i + 3, SavedAt: f.now}
			if err := tx.Put("history", histKey(userID, l.ID, rec.Rev), rec); err != nil {
				return err
			}
			outcome := &labs.Outcome{LabID: l.ID, DatasetID: i, Compiled: i%2 == 0, CompileError: head(src, 40),
				Ran: true, CheckMessage: "<ok> & done", Trace: head(src, 200), SimTime: 12345, WallTime: 67890,
				Kernels: []labs.KernelStats{{Name: "vecAdd", Blocks: 4, Threads: 256, GlobalLoads: 1 << 40, SimCycles: 99}}}
			diags := []kernelcheck.Diagnostic{{ID: "KC-OOB", Severity: kernelcheck.SevError, Pos: "3:7", Message: "a[i] > n & more"}}
			att := AttemptRec{ID: f.srv.newID("att"), UserID: userID, LabID: l.ID, DatasetID: i, Source: src,
				Outcome: outcome, At: f.now, Shared: i == 1, ShareTok: strings.Repeat("t", i%2), TraceID: "tr-1"}
			if i%2 == 0 {
				att.Diagnostics = diags
			}
			if i == 3 {
				att.Outcome = nil // "outcome":null
			}
			if err := putIndexed(tx, "attempts", l.ID, userID, att.ID, att); err != nil {
				return err
			}
			if i == 1 {
				// An index row whose record is gone, third in the student's range.
				if err := tx.Put("attempts"+byLab, l.ID+"|"+userID+"|"+att.ID+"x", struct{}{}); err != nil {
					return err
				}
			}
			g := &grader.Grade{UserID: userID, LabID: l.ID, SubmissionID: f.srv.newID("sub"), Total: 70 + i, Max: 100,
				DatasetPass: []bool{true, false}, GradedAt: f.now, Comment: "<b>late</b> &  ", Feedback: []string{head(src, 30)}}
			if i == 2 {
				g.DatasetPass, g.KeywordsHit = nil, []string{} // null beside []
			}
			sub := SubmissionRec{ID: g.SubmissionID, UserID: userID, LabID: l.ID, Source: src,
				Outcomes: []*labs.Outcome{outcome, nil}, Grade: g, Late: i%2 == 1, At: f.now, Diagnostics: diags}
			if err := putIndexed(tx, "submissions", l.ID, userID, sub.ID, sub); err != nil {
				return err
			}
			if err := tx.Put("grades", codeKey(userID, l.ID), g); err != nil {
				return err
			}
			c := CommentRec{ID: f.srv.newID("cmt"), UserID: userID, LabID: l.ID, Instructor: "prof", Text: src, At: f.now}
			if err := putIndexed(tx, "comments", l.ID, userID, c.ID, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// fetchErr returns a 200's body; sized, the response must also declare
	// its length (the pages are written in one piece).
	fetchErr := func(path, token string, sized bool) (string, error) {
		req, _ := http.NewRequest("GET", f.ts.URL+path, nil)
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s = %d, %v: %s", path, resp.StatusCode, err, body)
		}
		if cl := resp.Header.Get("Content-Length"); sized && cl != strconv.Itoa(len(body)) {
			return "", fmt.Errorf("GET %s: Content-Length %q, body is %d bytes", path, cl, len(body))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			return "", fmt.Errorf("GET %s: Content-Type %q", path, ct)
		}
		return string(body), nil
	}
	fetch := func(path, token string, sized bool) string {
		t.Helper()
		body, err := fetchErr(path, token, sized)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	get := func(path, token string) string { t.Helper(); return fetch(path, token, true) }
	same := func(what, got, want string) {
		t.Helper()
		if got != want {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s differs from decode → encode at byte %d of %d/%d:\n got …%.120q\nwant …%.120q",
				what, i, len(got), len(want), got[max(i-40, 0):], want[max(i-40, 0):])
		}
	}

	histKeys := func(tx *db.Tx) []string { return prefixKeys(tx, "history", codeKey(userID, l.ID)+"|") }
	attKeys := func(tx *db.Tx) []string { return ownedIDs(tx, "attempts", l.ID, userID) }
	served := map[string]string{}                 // path → body, for the concurrent pass below
	nHist, nAtt := len(sources)+2, len(sources)+2 // two saves and an attempt over HTTP; the dangling row counts
	for _, tc := range []struct {
		query string
		p     page
	}{
		{"", page{Limit: DefaultPageLimit}},
		{"?limit=0", page{}},
		{"?limit=2&offset=2", page{Limit: 2, Offset: 2}}, // the attempts window ends on the dangling row,
		{"?limit=2&offset=3", page{Limit: 2, Offset: 3}}, // … starts on it,
		{"?limit=1&offset=3", page{Limit: 1, Offset: 3}}, // … or is nothing but it
		{fmt.Sprintf("?limit=1&offset=%d", nHist-1), page{Limit: 1, Offset: nHist - 1}},
		{fmt.Sprintf("?limit=1&offset=%d", nAtt-1), page{Limit: 1, Offset: nAtt - 1}},
		{"?limit=5&offset=1000", page{Limit: 5, Offset: 1000}},
	} {
		hist := get(base+"/history"+tc.query, token)
		same("history"+tc.query, hist, oracleReadPage[CodeRec](f.srv, "history", tc.p, histKeys))
		atts := get(base+"/attempts"+tc.query, token)
		same("attempts"+tc.query, atts, oracleReadPage[AttemptRec](f.srv, "attempts", tc.p, attKeys))
		served[base+"/history"+tc.query], served[base+"/attempts"+tc.query] = hist, atts
		if want := fmt.Sprintf(`,"total":%d}`+"\n", nAtt); !strings.HasSuffix(atts, want) {
			t.Errorf("attempts%s ends %.40q, want the dangling index row counted: %q", tc.query, atts[len(atts)-40:], want)
		}
		if tc.p.Offset > nAtt && !strings.HasPrefix(atts, `{"items":[],`) {
			t.Errorf("attempts%s past the end = %.40q, want an empty array", tc.query, atts)
		}
	}
	// Pages are assembled in recycled buffers: requests in flight together
	// must each get their own page, whole.
	var paths []string
	for path := range served {
		paths = append(paths, path)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(paths); i++ {
				path := paths[(g*5+i)%len(paths)]
				if got, err := fetchErr(path, token, true); err != nil || got != served[path] {
					t.Errorf("concurrent GET %s: %v; %d bytes, want %d", path, err, len(got), len(served[path]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The whole listing holds every row but the dangling one, and the one
	// window that is only the dangling row is empty.
	var listing struct {
		Items []AttemptRec `json:"items"`
	}
	if err := json.Unmarshal([]byte(get(base+"/attempts?limit=0", token)), &listing); err != nil || len(listing.Items) != nAtt-1 {
		t.Errorf("attempts?limit=0 lists %d items, %v; want %d", len(listing.Items), err, nAtt-1)
	}
	if got := get(base+"/attempts?limit=1&offset=3", token); !strings.HasPrefix(got, `{"items":[],`) {
		t.Errorf("a window holding only the dangling row = %.60q", got)
	}

	var g grader.Grade
	if err := f.srv.db.View(func(tx *db.Tx) error { return tx.Get("grades", codeKey(userID, l.ID), &g) }); err != nil {
		t.Fatal(err)
	}
	same("grade", get(base+"/grade", token), encoded(g))
	same("student view", fetch("/api/v1/instructor/student/"+userID+"/"+l.ID, prof, false),
		encoded(oracleStudentDetail(f.srv, userID, l)))
	// A student with no rows at all: empty collections stay null, as a nil
	// slice of records marshals.
	var other emailRef
	_ = f.srv.db.View(func(tx *db.Tx) error { return tx.Get(usersByEmail, "prof@example.edu", &other) })
	same("empty student view", fetch("/api/v1/instructor/student/"+other.ID+"/"+l.ID, prof, false),
		encoded(oracleStudentDetail(f.srv, other.ID, l)))

	// The one representation decode → encode does not fix: raw invalid
	// UTF-8 in a record's own string (nothing a request can carry — a
	// worker's output cut mid-rune could) is stored as the escape \ufffd,
	// which re-encoding writes as the literal U+FFFD. The served row keeps
	// the escape: the same JSON string, different bytes.
	l2 := labs.ByID("basic-matmul")
	cut := CodeRec{UserID: userID, LabID: l2.ID, Source: "cut mid-rune: caf\xc3", Rev: 1, SavedAt: f.now}
	if err := f.srv.db.Update(func(tx *db.Tx) error { return tx.Put("history", histKey(userID, l2.ID, 1), cut) }); err != nil {
		t.Fatal(err)
	}
	got := get("/api/v1/labs/"+l2.ID+"/history", token)
	want := oracleReadPage[CodeRec](f.srv, "history", page{Limit: DefaultPageLimit},
		func(tx *db.Tx) []string { return prefixKeys(tx, "history", codeKey(userID, l2.ID)+"|") })
	var gotV, wantV interface{}
	if json.Unmarshal([]byte(got), &gotV) != nil || json.Unmarshal([]byte(want), &wantV) != nil || !reflect.DeepEqual(gotV, wantV) {
		t.Errorf("invalid UTF-8 row decodes differently:\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(got, `caf\ufffd"`) || !strings.Contains(want, "caf\ufffd\"") {
		t.Errorf("expected the escape served and the literal re-encoded:\n got %s\nwant %s", got, want)
	}
}
