package sandbox

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestBlacklistRejectsAsm(t *testing.T) {
	s := NewScanner(nil, ScanRaw)
	src := `__global__ void k(float *a) { asm("nop"); }`
	vs := s.Scan(src)
	if len(vs) != 1 || vs[0].Word != "asm" {
		t.Fatalf("violations = %v", vs)
	}
	if err := s.Check(src); !errors.Is(err, ErrBlacklisted) {
		t.Errorf("Check = %v", err)
	}
}

func TestBlacklistCleanSourcePasses(t *testing.T) {
	s := NewScanner(nil, ScanRaw)
	src := `__global__ void vecAdd(float *a, float *b, float *c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) c[i] = a[i] + b[i];
}`
	if err := s.Check(src); err != nil {
		t.Errorf("clean source rejected: %v", err)
	}
}

// The paper: "This method rejects code which contains the black listed
// functions even within comments" (raw mode), which preprocessed mode
// fixes — the exact ablation of experiment D5.
func TestRawModeFalsePositiveInComment(t *testing.T) {
	src := "// do not use asm here\n__global__ void k(float *a) { a[0] = 1.0f; }"
	raw := NewScanner(nil, ScanRaw)
	if err := raw.Check(src); !errors.Is(err, ErrBlacklisted) {
		t.Errorf("raw mode should flag commented asm: %v", err)
	}
	pp := NewScanner(nil, ScanPreprocessed)
	if err := pp.Check(src); err != nil {
		t.Errorf("preprocessed mode flagged a comment: %v", err)
	}
}

func TestBlacklistWordBoundaries(t *testing.T) {
	s := NewScanner(nil, ScanRaw)
	// "asmx" and "myasm" must not match "asm"; "systematic" not "system".
	if vs := s.Scan("int asmx; int myasm; float systematic;"); len(vs) != 0 {
		t.Errorf("substring matches: %v", vs)
	}
}

func TestBlacklistPositions(t *testing.T) {
	s := NewScanner(nil, ScanRaw)
	vs := s.Scan("int a;\n  system(0);")
	if len(vs) != 1 || vs[0].Line != 2 || vs[0].Col != 3 {
		t.Errorf("violation = %+v", vs)
	}
}

func TestCustomBlacklist(t *testing.T) {
	s := NewScanner([]string{"printf"}, ScanRaw)
	if len(s.Scan("printf(x); asm();")) != 1 {
		t.Error("custom list not honoured")
	}
}

func TestPolicyAllowDeny(t *testing.T) {
	p := DefaultPolicy()
	if err := p.Check("write"); err != nil {
		t.Errorf("write denied: %v", err)
	}
	if err := p.Check("execve"); !errors.Is(err, ErrSyscallDenied) {
		t.Errorf("execve allowed: %v", err)
	}
	p.Allow("execve")
	if err := p.Check("execve"); err != nil {
		t.Errorf("allowed call denied: %v", err)
	}
}

func TestMonitorKillDisposition(t *testing.T) {
	m := NewMonitor(NewPolicy([]string{"read"}, ActionKill))
	if err := m.Call("read"); err != nil {
		t.Fatal(err)
	}
	if err := m.Call("socket"); !errors.Is(err, ErrSyscallDenied) {
		t.Fatalf("socket = %v", err)
	}
	if !m.Killed() {
		t.Fatal("job not killed")
	}
	// After kill, even whitelisted calls fail.
	if err := m.Call("read"); err == nil {
		t.Fatal("call after kill succeeded")
	}
	calls, denied := m.Stats()
	if calls["read"] != 1 || calls["socket"] != 1 || denied["socket"] != 1 {
		t.Errorf("stats: calls=%v denied=%v", calls, denied)
	}
}

func TestMonitorErrnoDisposition(t *testing.T) {
	m := NewMonitor(NewPolicy([]string{"read"}, ActionErrno))
	if err := m.Call("socket"); !errors.Is(err, ErrSyscallDenied) {
		t.Fatal("socket allowed")
	}
	if m.Killed() {
		t.Fatal("errno disposition killed the job")
	}
	if err := m.Call("read"); err != nil {
		t.Fatalf("read after errno-denied call: %v", err)
	}
}

func TestRateLimiter(t *testing.T) {
	rl := NewRateLimiter(10 * time.Second)
	now := time.Unix(1000, 0)
	rl.SetClock(func() time.Time { return now })
	if err := rl.Admit("alice"); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if err := rl.Admit("alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("immediate resubmit: %v", err)
	}
	// A different user is unaffected.
	if err := rl.Admit("bob"); err != nil {
		t.Fatalf("other user: %v", err)
	}
	now = now.Add(11 * time.Second)
	if err := rl.Admit("alice"); err != nil {
		t.Fatalf("after interval: %v", err)
	}
}

// TestRateLimiterForgetsElapsedUsers: a course's worth of one-time
// submitters does not stay in the map, and sweeping them changes nothing
// for a user still inside the interval.
func TestRateLimiterForgetsElapsedUsers(t *testing.T) {
	rl := NewRateLimiter(10 * time.Second)
	now := time.Unix(1000, 0)
	rl.SetClock(func() time.Time { return now })
	for i := 0; i < 50000; i++ {
		if err := rl.Admit(fmt.Sprintf("user-%06d", i)); err != nil {
			t.Fatalf("user %d: %v", i, err)
		}
	}
	now = now.Add(7 * time.Second)
	if err := rl.Admit("live"); err != nil {
		t.Fatalf("live user: %v", err)
	}
	now = now.Add(3 * time.Second) // one interval after the rush
	if err := rl.Admit("late"); err != nil {
		t.Fatalf("late user: %v", err)
	}
	if n := len(rl.last); n >= maxTrackedUsers {
		t.Fatalf("map holds %d users one interval after the rush, want < %d", n, maxTrackedUsers)
	}
	err := rl.Admit("live")
	if !errors.Is(err, ErrRateLimited) || !strings.Contains(err.Error(), "retry in 7s") {
		t.Fatalf("live user after the sweep: %v, want rate limited with 7s left", err)
	}
	if err := rl.Admit("user-000000"); err != nil {
		t.Fatalf("swept user resubmitting after the interval: %v", err)
	}
}

func TestLimitsClampOutput(t *testing.T) {
	l := Limits{MaxOutputBytes: 10}
	out, truncated := l.ClampOutput("0123456789ABCDEF")
	if !truncated || !strings.Contains(out, "truncated") {
		t.Errorf("out = %q truncated = %v", out, truncated)
	}
	out, truncated = l.ClampOutput("short")
	if truncated || out != "short" {
		t.Errorf("short output mangled: %q %v", out, truncated)
	}
}

func TestDefaultLimitsSane(t *testing.T) {
	l := DefaultLimits()
	if l.MaxSteps <= 0 || l.RunTimeout <= 0 || l.SubmitInterval <= 0 {
		t.Errorf("defaults: %+v", l)
	}
}
