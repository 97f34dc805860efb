package sandbox

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"webgpu/internal/clock"
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
	if err := NewPolicy([]string{"execve"}).Check("execve"); err != nil {
		t.Errorf("allowed call denied: %v", err)
	}
}

func TestMonitorKillDisposition(t *testing.T) {
	m := NewMonitor(NewPolicy([]string{"read"}))
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
}

func TestRateLimiter(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	rl := Limits{SubmitInterval: 10 * time.Second}.SubmitLimiter(clk)
	if wait := rl.Take("alice"); wait != 0 {
		t.Fatalf("first submit waits %v", wait)
	}
	if wait := rl.Take("alice"); wait != 10*time.Second {
		t.Fatalf("immediate resubmit waits %v, want 10s", wait)
	}
	// A different user is unaffected.
	if wait := rl.Take("bob"); wait != 0 {
		t.Fatalf("other user waits %v", wait)
	}
	clk.Advance(10 * time.Second) // exactly one interval
	if wait := rl.Take("alice"); wait != 0 {
		t.Fatalf("after interval: waits %v", wait)
	}
}

// TestRateLimiterForgetsElapsedUsers: a course's worth of one-time
// submitters does not stay in the limiter, and sweeping them changes
// nothing for a user still inside the interval.
func TestRateLimiterForgetsElapsedUsers(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	rl := Limits{SubmitInterval: 10 * time.Second}.SubmitLimiter(clk)
	for i := 0; i < 50000; i++ {
		if wait := rl.Take(fmt.Sprintf("user-%06d", i)); wait != 0 {
			t.Fatalf("user %d waits %v", i, wait)
		}
	}
	clk.Advance(7 * time.Second)
	if wait := rl.Take("live"); wait != 0 {
		t.Fatalf("live user waits %v", wait)
	}
	clk.Advance(3 * time.Second) // one interval after the rush
	if wait := rl.Take("late"); wait != 0 {
		t.Fatalf("late user waits %v", wait)
	}
	if n := rl.Len(); n != 2 {
		t.Fatalf("limiter holds %d users one interval after the rush, want live and late", n)
	}
	if wait := rl.Take("live"); wait != 7*time.Second {
		t.Fatalf("live user after the sweep waits %v, want 7s", wait)
	}
	if wait := rl.Take("user-000000"); wait != 0 {
		t.Fatalf("swept user resubmitting after the interval waits %v", wait)
	}
}

func TestLimitsClampOutput(t *testing.T) {
	l := Limits{MaxOutputBytes: 10}
	for _, row := range []struct {
		out   string
		spent int
		want  string
	}{
		{"0123456789ABCDEF", 0, "0123456789\n[output truncated]"},
		{"short", 0, "short"},
		// Later outputs of the same job get what the earlier ones left.
		{"short", 7, "sho\n[output truncated]"},
		{"short", 12, "\n[output truncated]"},
		{"", 12, ""},
	} {
		if got := l.ClampOutput(row.out, row.spent); got != row.want {
			t.Errorf("ClampOutput(%q, %d) = %q, want %q", row.out, row.spent, got, row.want)
		}
	}
}

func TestDefaultLimitsSane(t *testing.T) {
	l := DefaultLimits()
	if l.MaxSteps <= 0 || l.CompileTimeout <= 0 || l.SubmitInterval <= 0 {
		t.Errorf("defaults: %+v", l)
	}
}
