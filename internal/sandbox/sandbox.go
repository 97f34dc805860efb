// Package sandbox implements WebGPU's security model (§III-D): a
// compile-time blacklist of dangerous constructs scanned over student
// source, a runtime whitelist of permitted system calls (the seccomp-bpf
// analogue, instructor-configurable per lab) and per-job resource limits.
package sandbox

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/minicuda"
)

// Errors.
var (
	ErrBlacklisted   = errors.New("sandbox: source contains blacklisted construct")
	ErrSyscallDenied = errors.New("sandbox: system call not in whitelist")
	ErrRateLimited   = errors.New("sandbox: submission rate limit exceeded")
	ErrOutputLimit   = errors.New("sandbox: output size limit exceeded")
)

// ---- Compile-time blacklist -------------------------------------------------

// ScanMode selects whether the blacklist scan runs on the raw source text
// or on the preprocessed (comment-stripped) text. The paper notes the raw
// scan "rejects code which contains the black listed functions even within
// comments"; preprocessed mode avoids those false positives.
type ScanMode int

// Scan modes.
const (
	ScanRaw ScanMode = iota
	ScanPreprocessed
)

// DefaultBlacklist is the construct list WebGPU ships with. `asm` is the
// example the paper gives (inline assembly can escape any sandbox); the
// rest close the common escape hatches of a C-family toolchain.
var DefaultBlacklist = []string{
	"asm", "__asm", "__asm__",
	"system", "exec", "execve", "execl", "popen", "fork", "vfork", "clone",
	"fopen", "open", "unlink", "remove", "chmod", "chown",
	"socket", "connect", "bind", "listen", "accept",
	"dlopen", "dlsym", "mmap", "mprotect", "syscall", "ptrace",
	"setuid", "setgid", "environ", "getenv", "setenv",
}

// Violation is one blacklist hit.
type Violation struct {
	Word string
	Line int
	Col  int
}

func (v Violation) String() string {
	return fmt.Sprintf("%d:%d: use of blacklisted identifier %q", v.Line, v.Col, v.Word)
}

// Scanner checks source against a blacklist.
type Scanner struct {
	words map[string]bool
	mode  ScanMode
}

// NewScanner builds a scanner over the given blacklist (nil uses
// DefaultBlacklist).
func NewScanner(words []string, mode ScanMode) *Scanner {
	if words == nil {
		words = DefaultBlacklist
	}
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return &Scanner{words: m, mode: mode}
}

// Scan returns all blacklist violations in the source. In ScanRaw mode
// identifiers inside comments are matched too (the paper's false-positive
// behaviour); in ScanPreprocessed mode comments are stripped first.
func (s *Scanner) Scan(src string) []Violation {
	text := src
	if s.mode == ScanPreprocessed {
		text = minicuda.StripComments(src)
	}
	var out []Violation
	line, col := 1, 1
	i := 0
	for i < len(text) {
		c := text[i]
		if c == '\n' {
			line++
			col = 1
			i++
			continue
		}
		if isIdentStart(c) {
			j := i
			for j < len(text) && isIdentChar(text[j]) {
				j++
			}
			word := text[i:j]
			if s.words[word] {
				out = append(out, Violation{Word: word, Line: line, Col: col})
			}
			col += j - i
			i = j
			continue
		}
		col++
		i++
	}
	return out
}

// Check returns ErrBlacklisted (wrapped with the first violation) when the
// source fails the scan.
func (s *Scanner) Check(src string) error {
	if vs := s.Scan(src); len(vs) > 0 {
		return fmt.Errorf("%w: %s", ErrBlacklisted, vs[0])
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// ---- Runtime syscall whitelist ------------------------------------------------

// Action is what the policy does on a non-whitelisted call.
type Action int

// Policy actions, mirroring seccomp's SECCOMP_RET_* dispositions.
const (
	ActionKill  Action = iota // terminate the job
	ActionErrno               // fail the call with EPERM but continue
)

// Policy is the per-lab syscall whitelist the instructor provides
// (§III-D: "The whitelist is provided by the instructor on a per lab
// basis").
type Policy struct {
	Allowed map[string]bool
	OnDeny  Action
}

// DefaultPolicy permits the calls the lab harness itself needs.
func DefaultPolicy() *Policy {
	return NewPolicy([]string{
		"read", "write", "close", "fstat", "mmap_anon", "brk",
		"exit", "exit_group", "clock_gettime", "futex", "rt_sigreturn",
	}, ActionKill)
}

// NewPolicy builds a policy from an allow list.
func NewPolicy(allowed []string, onDeny Action) *Policy {
	m := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		m[a] = true
	}
	return &Policy{Allowed: m, OnDeny: onDeny}
}

// Allow adds a call to the whitelist.
func (p *Policy) Allow(call string) { p.Allowed[call] = true }

// Check evaluates one call. A denied call returns ErrSyscallDenied; the
// caller consults OnDeny to decide whether the job dies (Kill) or the call
// merely fails (Errno).
func (p *Policy) Check(call string) error {
	if p.Allowed[call] {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrSyscallDenied, call)
}

// Monitor wraps a policy and records the calls a job attempted, for the
// administrator dashboard.
type Monitor struct {
	policy *Policy
	mu     sync.Mutex
	calls  map[string]int
	denied map[string]int
	killed bool
}

// NewMonitor wraps a policy.
func NewMonitor(p *Policy) *Monitor {
	return &Monitor{policy: p, calls: map[string]int{}, denied: map[string]int{}}
}

// Call evaluates a syscall under the policy, recording it. After a Kill
// disposition fires, every subsequent call fails.
func (m *Monitor) Call(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.killed {
		return fmt.Errorf("%w: job killed", ErrSyscallDenied)
	}
	m.calls[name]++
	if err := m.policy.Check(name); err != nil {
		m.denied[name]++
		if m.policy.OnDeny == ActionKill {
			m.killed = true
		}
		return err
	}
	return nil
}

// Killed reports whether the job was killed by the policy.
func (m *Monitor) Killed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.killed
}

// Stats returns copies of the attempted and denied call counts.
func (m *Monitor) Stats() (calls, denied map[string]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	calls = make(map[string]int, len(m.calls))
	denied = make(map[string]int, len(m.denied))
	for k, v := range m.calls {
		calls[k] = v
	}
	for k, v := range m.denied {
		denied[k] = v
	}
	return calls, denied
}

// ---- Resource limits ------------------------------------------------------------

// Limits are the execution bounds (§III-C: "time limits are placed on the
// submission rate and on the duration of the compilation and execution of
// user code. The time limits can be adjusted on a per lab basis"). One set
// holds for every lab: no lab carries its own.
type Limits struct {
	CompileTimeout time.Duration
	MaxSteps       int64 // per-thread step budget: the execution time limit, in its deterministic form
	MaxOutputBytes int
	SubmitInterval time.Duration // minimum time between submissions per user
}

// DefaultLimits returns the platform defaults.
func DefaultLimits() Limits {
	return Limits{
		CompileTimeout: 10 * time.Second,
		MaxSteps:       4 << 20,
		MaxOutputBytes: 1 << 20,
		SubmitInterval: 10 * time.Second,
	}
}

// ClampOutput truncates one output of a job to what is left of the
// limit after the job's earlier outputs spent bytes of it, appending a
// marker. The outputs of one job share the limit: a job that runs N
// datasets stores at most MaxOutputBytes of output, not N times that.
func (l Limits) ClampOutput(out string, spent int) string {
	left := max(l.MaxOutputBytes-spent, 0)
	if l.MaxOutputBytes <= 0 || len(out) <= left {
		return out
	}
	return out[:left] + "\n[output truncated]"
}

// SubmitLimiter is the per-user submission interval as a burst-1 token
// bucket on c: one submission per SubmitInterval, each user on their own.
func (l Limits) SubmitLimiter(c clock.Clock) *clock.Limiter {
	return clock.NewLimiter(1, l.SubmitInterval, c)
}
