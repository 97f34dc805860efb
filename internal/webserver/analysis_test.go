package webserver

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
)

// racyVecAdd is a compiling vector-add with a provable shared-memory
// race (store s[tx], read s[tx+1], no barrier) plus an unused variable.
const racyVecAdd = `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  __shared__ float s[257];
  int spare = len;
  int tx = threadIdx.x;
  int i = blockIdx.x * blockDim.x + tx;
  s[tx] = in1[i];
  out[i] = s[tx + 1] + in2[i];
}
`

// TestAttemptCarriesDiagnostics: an attempt's response and its stored
// record include the analyzer findings for the submitted source.
func TestAttemptCarriesDiagnostics(t *testing.T) {
	f := newFixture(t)
	tok := f.register("s@x", "student")
	code, body := f.req("POST", "/api/v1/labs/vector-add/attempt?dataset=0", tok,
		map[string]string{"source": racyVecAdd})
	if code != http.StatusOK {
		t.Fatalf("attempt: %d %s", code, body)
	}
	var att AttemptRec
	if err := json.Unmarshal(body, &att); err != nil {
		t.Fatal(err)
	}
	if len(att.Diagnostics) == 0 {
		t.Fatal("attempt response has no diagnostics")
	}
	found := false
	for _, d := range att.Diagnostics {
		if d.ID == kernelcheck.RuleRace {
			found = true
		}
	}
	if !found {
		t.Errorf("diagnostics missing %s: %+v", kernelcheck.RuleRace, att.Diagnostics)
	}

	// The stored attempt (Attempts view / attempt history API) carries
	// them too.
	code, body = f.req("GET", "/api/v1/labs/vector-add/attempts", tok, nil)
	if code != http.StatusOK {
		t.Fatalf("attempts: %d %s", code, body)
	}
	var page struct {
		Items []AttemptRec `json:"items"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 1 || len(page.Items[0].Diagnostics) == 0 {
		t.Errorf("stored attempt lost its diagnostics: %+v", page.Items)
	}
}

// TestSubmitFeedbackAndFailFast: a submission's grade feedback includes
// the diagnostics; flipping the lab to fail-fast blocks the next
// submission of the racy source.
func TestSubmitFeedbackAndFailFast(t *testing.T) {
	f := newFixture(t)
	stok := f.register("s@x", "student")
	itok := f.register("i@x", "instructor")

	code, body := f.req("POST", "/api/v1/labs/vector-add/submit", stok,
		map[string]string{"source": racyVecAdd})
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	var sub SubmissionRec
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.AnalysisBlocked {
		t.Error("warn-policy submission was blocked")
	}
	if len(sub.Diagnostics) == 0 {
		t.Fatal("submission has no diagnostics")
	}
	if sub.Grade == nil || len(sub.Grade.Feedback) == 0 {
		t.Fatalf("grade carries no feedback: %+v", sub.Grade)
	}
	raceInFeedback := false
	for _, line := range sub.Grade.Feedback {
		if strings.Contains(line, kernelcheck.RuleRace) {
			raceInFeedback = true
		}
	}
	if !raceInFeedback {
		t.Errorf("grade feedback missing the race finding: %v", sub.Grade.Feedback)
	}

	// Instructor flips the lab to fail-fast; policy round-trips via GET.
	code, body = f.req("POST", "/api/v1/instructor/labs/vector-add/analysis", itok,
		map[string]string{"policy": "fail-fast"})
	if code != http.StatusOK {
		t.Fatalf("set policy: %d %s", code, body)
	}
	code, body = f.req("GET", "/api/v1/instructor/labs/vector-add/analysis", itok, nil)
	if code != http.StatusOK || !strings.Contains(string(body), "fail-fast") {
		t.Fatalf("get policy: %d %s", code, body)
	}

	// Students cannot set the policy.
	if code, _ := f.req("POST", "/api/v1/instructor/labs/vector-add/analysis", stok,
		map[string]string{"policy": "off"}); code != http.StatusForbidden {
		t.Errorf("student set policy = %d, want 403", code)
	}
	// An unknown policy is rejected.
	if code, _ := f.req("POST", "/api/v1/instructor/labs/vector-add/analysis", itok,
		map[string]string{"policy": "strict"}); code != http.StatusBadRequest {
		t.Errorf("bogus policy = %d, want 400", code)
	}

	// The next submission of the same racy source is blocked before
	// execution and the outcomes explain why.
	f.clk.Advance(time.Hour) // clear the submit rate limit
	code, body = f.req("POST", "/api/v1/labs/vector-add/submit", stok,
		map[string]string{"source": racyVecAdd})
	if code != http.StatusOK {
		t.Fatalf("fail-fast submit: %d %s", code, body)
	}
	var blocked SubmissionRec
	if err := json.Unmarshal(body, &blocked); err != nil {
		t.Fatal(err)
	}
	if !blocked.AnalysisBlocked {
		t.Fatalf("fail-fast submission was not blocked: %+v", blocked.Diagnostics)
	}
	if blocked.Grade.Datasets != 0 {
		t.Errorf("blocked submission earned dataset points: %+v", blocked.Grade)
	}
	if len(blocked.Outcomes) == 0 || !strings.Contains(blocked.Outcomes[0].RuntimeError, "fail-fast") {
		t.Errorf("blocked outcomes missing the policy explanation: %+v", blocked.Outcomes)
	}
}

// TestFailFastCleanSubmission: fail-fast does not block a correct,
// race-free submission.
func TestFailFastCleanSubmission(t *testing.T) {
	f := newFixture(t)
	stok := f.register("s@x", "student")
	itok := f.register("i@x", "instructor")
	if code, body := f.req("POST", "/api/v1/instructor/labs/vector-add/analysis", itok,
		map[string]string{"policy": "fail-fast"}); code != http.StatusOK {
		t.Fatalf("set policy: %d %s", code, body)
	}
	code, body := f.req("POST", "/api/v1/labs/vector-add/submit", stok,
		map[string]string{"source": labs.ByID("vector-add").Reference})
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	var sub SubmissionRec
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.AnalysisBlocked {
		t.Fatal("clean submission blocked under fail-fast")
	}
	if sub.Grade.Datasets == 0 {
		t.Errorf("clean submission earned no dataset points: %+v", sub.Grade)
	}
}
