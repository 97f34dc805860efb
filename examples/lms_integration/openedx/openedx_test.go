package openedx

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"webgpu/internal/grader"
	"webgpu/internal/labs"
)

var secret = []byte("course-shared-secret")

func TestXBlockRoundTrip(t *testing.T) {
	deadline := time.Date(2015, 2, 19, 23, 59, 0, 0, time.UTC)
	xb, err := NewXBlock("tiled-matmul", 0.15, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if xb.DisplayName != "Tiled Matrix Multiplication" || xb.MaxPoints <= 0 {
		t.Errorf("xblock = %+v", xb)
	}
	parsed, err := ParseXBlock(xb.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.LabID != "tiled-matmul" || parsed.Deadline != deadline.Format(time.RFC3339) {
		t.Errorf("parsed = %+v", parsed)
	}
}

func TestXBlockValidation(t *testing.T) {
	if _, err := NewXBlock("no-such-lab", 0.1, time.Time{}); !errors.Is(err, ErrUnknownLab) {
		t.Errorf("err = %v", err)
	}
	if _, err := ParseXBlock([]byte(`{"type":"video","lab_id":"vector-add"}`)); err == nil {
		t.Error("wrong block type accepted")
	}
	if _, err := ParseXBlock([]byte(`{"type":"webgpu_lab","lab_id":"ghost"}`)); !errors.Is(err, ErrUnknownLab) {
		t.Errorf("ghost lab err = %v", err)
	}
	if _, err := ParseXBlock([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLaunchSignVerify(t *testing.T) {
	c := NewConnector(secret)
	now := time.Unix(1_423_400_000, 0)
	l := c.NewLaunch("lms-user-7", "s@example.edu", "Student Seven", "vector-add", now)
	if err := l.Verify(secret, now.Add(time.Minute)); err != nil {
		t.Fatalf("valid launch rejected: %v", err)
	}
	// Tampering with any signed field breaks the signature.
	tampered := *l
	tampered.LabID = "sgemm"
	if err := tampered.Verify(secret, now); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered lab err = %v", err)
	}
	tampered = *l
	tampered.UserID = "someone-else"
	if err := tampered.Verify(secret, now); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered user err = %v", err)
	}
	// Wrong secret fails.
	if err := l.Verify([]byte("other"), now); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong secret err = %v", err)
	}
}

func TestLaunchExpiry(t *testing.T) {
	c := NewConnector(secret)
	now := time.Unix(1_423_400_000, 0)
	l := c.NewLaunch("u", "e@x", "n", "vector-add", now)
	if err := l.Verify(secret, now.Add(LaunchWindow+time.Minute)); !errors.Is(err, ErrExpired) {
		t.Errorf("stale launch err = %v", err)
	}
	// Clock skew into the future is also rejected.
	if err := l.Verify(secret, now.Add(-2*time.Minute)); !errors.Is(err, ErrExpired) {
		t.Errorf("future launch err = %v", err)
	}
}

func TestLaunchUnknownLab(t *testing.T) {
	c := NewConnector(secret)
	now := time.Now()
	l := c.NewLaunch("u", "e@x", "n", "ghost-lab", now)
	if err := l.Verify(secret, now); !errors.Is(err, ErrUnknownLab) {
		t.Errorf("err = %v", err)
	}
}

func TestGradePassback(t *testing.T) {
	c := NewConnector(secret)
	g := &grader.Grade{UserID: "u1", LabID: "vector-add", Total: 84, Max: 105}
	if err := c.PushGrade("sourcedid:u1:vector-add", g); err != nil {
		t.Fatal(err)
	}
	score, ok := c.Score("sourcedid:u1:vector-add")
	if !ok || score < 0.79 || score > 0.81 {
		t.Errorf("score = %v %v", score, ok)
	}
	if c.Pushes() != 1 {
		t.Errorf("pushes = %d", c.Pushes())
	}
	if err := c.PushGrade("r", &grader.Grade{Total: 1}); err == nil {
		t.Error("zero-max grade accepted")
	}
	// Scores clamp to [0,1].
	_ = c.PushGrade("r2", &grader.Grade{Total: 200, Max: 100})
	if s, _ := c.Score("r2"); s != 1 {
		t.Errorf("clamped score = %v", s)
	}
}

func TestGradebookAdapter(t *testing.T) {
	c := NewConnector(secret)
	gb := NewGradebook(c)
	g := &grader.Grade{UserID: "u1", LabID: "spmv", Total: 50, Max: 100}
	if err := gb.Record(g); err != nil {
		t.Fatal(err)
	}
	got, err := gb.Lookup("u1", "spmv")
	if err != nil || got.Total != 50 {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	if s, ok := c.Score("sourcedid:u1:spmv"); !ok || s != 0.5 {
		t.Errorf("lms score = %v %v", s, ok)
	}
	if _, err := gb.Lookup("ghost", "spmv"); !errors.Is(err, grader.ErrNoSuchGrade) {
		t.Errorf("ghost lookup = %v", err)
	}
	if err := gb.Record(&grader.Grade{}); err == nil {
		t.Error("empty grade accepted")
	}
}

// End-to-end: LMS launch → platform run → grade passback, the v2 Figure 6
// loop with OpenEdx at the front.
func TestLMSRoundTrip(t *testing.T) {
	c := NewConnector(secret)
	gb := NewGradebook(c)
	now := time.Now()

	launch := c.NewLaunch("lms-42", "x@lms.edu", "X", "vector-add", now)
	if err := launch.Verify(secret, now); err != nil {
		t.Fatal(err)
	}
	l := labs.ByID(launch.LabID)
	outs := labs.RunAll(context.Background(), l, l.Reference, labs.NewDeviceSet(1), 0)
	g := grader.Score(l, l.Reference, outs, len(l.Questions))
	g.UserID, g.GradedAt = launch.UserID, now
	if err := gb.Record(g); err != nil {
		t.Fatal(err)
	}
	score, ok := c.Score(launch.ResultID)
	if !ok || score != 1 {
		t.Fatalf("LMS score = %v %v (grade %d/%d)", score, ok, g.Total, g.Max)
	}
	if !strings.HasPrefix(launch.ResultID, "sourcedid:lms-42:") {
		t.Errorf("result id = %q", launch.ResultID)
	}
}
