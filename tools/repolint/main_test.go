package main

import (
	"bytes"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a fake repo under a temp dir and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runLint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String()
}

func TestClockCallFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/overload/bad.go": `package overload

import "time"

func f() time.Time { return time.Now() }

func g(t0 time.Time) time.Duration { return time.Since(t0) }
`,
	})
	code, out := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if n := strings.Count(out, "deterministic-clock package"); n != 2 {
		t.Fatalf("want 2 clock findings, got %d:\n%s", n, out)
	}
}

// TestClockValueReferenceAllowed: a clock package may hold a clock.Clock,
// default it to clock.Real and use time's types; only the wall clock's
// own functions are out.
func TestClockValueReferenceAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/devsession/ok.go": `package devsession

import (
	"time"

	"webgpu/internal/clock"
)

type cfg struct {
	Clock  clock.Clock
	Window time.Duration
}

func defaults(c cfg) cfg {
	if c.Clock == nil {
		c.Clock = clock.Real
	}
	return c
}

func since(c cfg, t0 time.Time) time.Duration { return c.Clock.Now().Sub(t0) }
`,
	})
	if code, out := runLint(t, root); code != 0 {
		t.Fatalf("clock.Clock use flagged: exit = %d\n%s", code, out)
	}
}

// TestClockRuleWallClockRows: each row names the wall clock once in a
// clock package, as a stored function value, a timer or a sleep.
func TestClockRuleWallClockRows(t *testing.T) {
	rows := []struct{ name, path, body string }{
		{"stored time.Now", "internal/devsession/seam.go", `var now = time.Now`},
		{"timer", "internal/webserver/timer.go", `func f() { <-time.NewTimer(time.Second).C }`},
		{"ticker", "internal/queue/ticker.go", `func f() *time.Ticker { return time.NewTicker(time.Second) }`},
		{"sleep", "internal/wb/sleep.go", `func f() { time.Sleep(time.Millisecond) }`},
		{"after func", "internal/overload/after.go", `func f() { time.AfterFunc(time.Second, func() {}) }`},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			pkg := path.Base(path.Dir(row.path))
			root := writeTree(t, map[string]string{row.path: "package " + pkg + "\n\nimport \"time\"\n\n" + row.body + "\n"})
			code, out := runLint(t, root)
			if n := strings.Count(out, "deterministic-clock package"); code != 1 || n != 1 {
				t.Fatalf("exit = %d, %d clock findings, want 1:\n%s", code, n, out)
			}
		})
	}
}

func TestClockRuleScopedToListedPackages(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/other/fine.go": `package other

import "time"

func f() time.Time { return time.Now() }
`,
	})
	if code, out := runLint(t, root); code != 0 {
		t.Fatalf("unlisted package flagged: exit = %d\n%s", code, out)
	}
}

func TestTestFilesExempt(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/overload/clock_test.go": `package overload

import "time"

var t0 = time.Now()
`,
	})
	if code, out := runLint(t, root); code != 0 {
		t.Fatalf("test file flagged: exit = %d\n%s", code, out)
	}
}

func TestHotpathSprintfAndRegexpFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/kernelcheck/hot.go": `//kernelcheck:hotpath
package kernelcheck

import (
	"fmt"
	"regexp"
)

var re = regexp.MustCompile("x+")

func f(n int) string { return fmt.Sprintf("%d", n) }
`,
	})
	code, out := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "regexp imported") || !strings.Contains(out, "fmt.Sprintf call") {
		t.Fatalf("missing hotpath findings:\n%s", out)
	}
}

func TestFeedbackRegexpFlagged(t *testing.T) {
	const src = `package feedback

import "regexp"

var re = regexp.MustCompile("x+")
`
	code, out := runLint(t, writeTree(t, map[string]string{"internal/feedback/feedback.go": src}))
	if code != 1 || !strings.Contains(out, "regexp imported in internal/feedback") {
		t.Fatalf("exit = %d, want 1 with the feedback finding\n%s", code, out)
	}
	if code, out := runLint(t, writeTree(t, map[string]string{"internal/feedback/x_test.go": src, "internal/grader/grader.go": "package grader" + src[len("package feedback"):]})); code != 0 {
		t.Fatalf("a test file or another package flagged: exit = %d\n%s", code, out)
	}
}

func TestHotpathRuleNeedsMarker(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/kernelcheck/cold.go": `package kernelcheck

import "fmt"

func f(n int) string { return fmt.Sprintf("%d", n) }
`,
	})
	if code, out := runLint(t, root); code != 0 {
		t.Fatalf("unmarked file flagged: exit = %d\n%s", code, out)
	}
}

// TestLoopTimerRule: time.After is banned in every non-test file under
// internal/ and cmd/, inside a loop or not, once per call however deep
// the nesting; a test file, a file outside those trees and a stopped or
// reused time.Timer are fine.
func TestLoopTimerRule(t *testing.T) {
	const loopSrc = `

import "time"

func f(stop chan struct{}, xs []int) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
		for range xs {
			<-time.After(time.Millisecond)
		}
	}
}
`
	const onceSrc = `

import "time"

func f(done chan struct{}) bool {
	select {
	case <-done:
		return true
	case <-time.After(time.Second):
		return false
	}
}
`
	rows := []struct {
		name, path, src string
		want            int
	}{
		{"devsession loop", "internal/devsession/loop.go", "package devsession" + loopSrc, 2},
		{"queue loop", "internal/queue/loop.go", "package queue" + loopSrc, 2},
		{"worker loop", "internal/worker/loop.go", "package worker" + loopSrc, 2},
		{"platform loop", "internal/platform/loop.go", "package platform" + loopSrc, 2},
		{"unlisted package", "internal/mpi/loop.go", "package mpi" + loopSrc, 2},
		{"outside a loop", "internal/worker/once.go", "package worker" + onceSrc, 1},
		{"cmd", "cmd/webgpu-worker/once.go", "package main" + onceSrc, 1},
		{"test file", "internal/queue/loop_test.go", "package queue" + loopSrc, 0},
		{"outside internal and cmd", "tools/probe/once.go", "package main" + onceSrc, 0},
		{"stopped timer", "internal/mpi/timer.go", `package mpi

import "time"

func f(done chan struct{}) bool {
	t := time.NewTimer(time.Second)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}
`, 0},
		{"reused timer", "internal/worker/timer.go", `package worker

import "time"

func f(stop chan struct{}) {
	t := time.NewTimer(time.Millisecond)
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			t.Reset(time.Millisecond)
		}
	}
}
`, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			root := writeTree(t, map[string]string{row.path: row.src})
			code, out := runLint(t, root)
			if n := strings.Count(out, "time.After call"); n != row.want {
				t.Fatalf("want %d time.After findings, got %d:\n%s", row.want, n, out)
			}
			if (code == 1) != (row.want > 0) || code > 1 {
				t.Fatalf("exit = %d with %d findings wanted\n%s", code, row.want, out)
			}
		})
	}
}

// TestDroppedPutRule: a castore write-through whose error nobody looks at
// is flagged under internal/ in either spelling; a checked Put, another
// package's Put, and the same code outside internal/ are fine.
func TestDroppedPutRule(t *testing.T) {
	const imports = `

import "webgpu/internal/castore"

`
	rows := []struct {
		name, path, src string
		want            int
	}{
		{"blank assign and bare call", "internal/progcache/bad.go", "package progcache" + imports + `
func f(s *castore.Store, k string, b []byte) {
	_ = s.Put(k, "prog", b)
	s.Put(k, "diag", b)
}
`, 2},
		{"checked", "internal/progcache/ok.go", "package progcache" + imports + `
func f(s *castore.Store, k string, b []byte) error {
	if err := s.Put(k, "prog", b); err != nil {
		return err
	}
	failed := s.Put(k, "diag", b) != nil
	_ = failed
	return nil
}
`, 0},
		{"no castore import", "internal/db/tx.go", `package db

type tx struct{}

func (tx) Put(table, key string, v []byte) error { return nil }

func f(t tx) { _ = t.Put("a", "b", nil) }
`, 0},
		{"outside internal", "examples/demo/main.go", "package main" + imports + `
func f(s *castore.Store) { _ = s.Put("k", "prog", nil) }
`, 0},
		{"test file", "internal/progcache/x_test.go", "package progcache" + imports + `
func f(s *castore.Store) { _ = s.Put("k", "prog", nil) }
`, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			root := writeTree(t, map[string]string{row.path: row.src})
			code, out := runLint(t, root)
			if n := strings.Count(out, "Put result dropped"); n != row.want {
				t.Fatalf("want %d dropped-put findings, got %d:\n%s", row.want, n, out)
			}
			if (code == 1) != (row.want > 0) || code > 1 {
				t.Fatalf("exit = %d with %d findings wanted\n%s", code, row.want, out)
			}
		})
	}
}

// TestDroppedSettleRule: an Ack or Nack whose error is dropped is flagged
// under internal/ and cmd/ in either spelling, except in the function the
// allowlist names; a checked settle, a call with arguments and code
// outside those trees are fine.
func TestDroppedSettleRule(t *testing.T) {
	rows := []struct {
		name, path, src string
		want            int
	}{
		{"blank assign and bare call", "internal/platform/bad.go", `package platform

type delivery interface{ Ack() error; Nack() error }

func f(d delivery) {
	_ = d.Nack()
	d.Ack()
}
`, 2},
		{"command", "cmd/webgpu-worker/main.go", `package main

type delivery interface{ Ack() error }

func main() { var d delivery; _ = d.Ack() }
`, 1},
		{"checked", "internal/platform/ok.go", `package platform

type delivery interface{ Ack() error; Nack() error }

func f(d delivery, count func()) error {
	if d.Nack() != nil {
		count()
	}
	return d.Ack()
}
`, 0},
		{"other arity", "internal/platform/arity.go", `package platform

type peer interface{ Ack(id int) error }

func f(p peer) { _ = p.Ack(1) }
`, 0},
		{"allowlisted function", "internal/worker/v2.go", `package worker

type delivery interface{ Ack() error; Nack() error }

type Driver struct{ d delivery }

func (dr *Driver) loop() { _ = dr.d.Nack(); _ = dr.d.Ack() }

func (dr *Driver) other() { _ = dr.d.Ack() }
`, 1},
		{"outside internal and cmd", "examples/demo/main.go", `package main

type delivery interface{ Ack() error }

func main() { var d delivery; _ = d.Ack() }
`, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			root := writeTree(t, map[string]string{row.path: row.src})
			code, out := runLint(t, root)
			if n := strings.Count(out, "error dropped; a refused settle"); n != row.want {
				t.Fatalf("want %d dropped-settle findings, got %d:\n%s", row.want, n, out)
			}
			if (code == 1) != (row.want > 0) || code > 1 {
				t.Fatalf("exit = %d with %d findings wanted\n%s", code, row.want, out)
			}
		})
	}
}

// TestStopwatchRule: a test that orders a time.Since, a .Sub, a variable
// the function assigned one of those to, or an operand naming a time
// unit is flagged; a for condition (a wait bound),
// an equality, a function on the allowlist, a non-test file and a test
// outside internal/, cmd/ and tools/ are not. An allowlist entry whose
// file is walked but no longer declares its function is flagged too.
func TestStopwatchRule(t *testing.T) {
	rows := []struct {
		name, path, src string
		want            int
	}{
		{"since, sub and unit", "internal/queue/q_test.go", `package queue

import (
	"testing"
	"time"
)

func TestX(t *testing.T) {
	start := time.Now()
	if time.Since(start) > 0 {
		t.Error("slow")
	}
	if time.Now().Sub(start) <= 0 {
		t.Error("fast")
	}
	t.Run("sub", func(t *testing.T) {
		var waited time.Duration
		if waited >= 20*time.Millisecond {
			t.Error("late")
		}
	})
}
`, 3},
		{"a reading held in a variable", "internal/worker/w_test.go", `package worker

import (
	"testing"
	"time"
)

func TestHeld(t *testing.T) {
	const interval = 150 * time.Millisecond
	start := time.Now()
	if took := time.Since(start); took >= 2*interval {
		t.Error("slow")
	}
	lag := time.Now().Sub(start)
	if lag > interval {
		t.Error("late")
	}
	n, m := 3, interval
	if n > 2 || m > 0 {
		t.Log(n)
	}
}
`, 2},
		{"float of a unit", "cmd/minicuda/m_test.go", `package main

import (
	"testing"
	"time"
)

func TestP99(t *testing.T) {
	var p99 float64
	if p99 > float64(5*time.Second/time.Millisecond) {
		t.Error("p99")
	}
}
`, 1},
		{"wait bound and equality", "tools/kernelcheck/k_test.go", `package main

import (
	"testing"
	"time"
)

func TestWait(t *testing.T) {
	for deadline := time.Now().Add(time.Second); time.Since(deadline) < 0; {
		break
	}
	var waited time.Duration
	if waited != 20*time.Millisecond {
		t.Error("exact")
	}
	if n := 3; n > 2 {
		t.Log(n)
	}
}
`, 0},
		{"allowlisted function", "internal/faultinject/faultinject_test.go", `package faultinject

import (
	"testing"
	"time"
)

func TestLatencyOnlyFault(t *testing.T) {
	var d time.Duration
	if d < 20*time.Millisecond {
		t.Error("short")
	}
}

func TestOther(t *testing.T) {
	var d time.Duration
	if d < 20*time.Millisecond {
		t.Error("short")
	}
}
`, 1},
		{"stale allowlist entry", "internal/faultinject/faultinject_test.go", `package faultinject

import "testing"

func TestOther(t *testing.T) {}
`, 1},
		{"not a test file", "internal/queue/q.go", `package queue

import "time"

func slow(d time.Duration) bool { return d > time.Second }
`, 0},
		{"outside internal, cmd and tools", "examples/demo/d_test.go", `package main

import (
	"testing"
	"time"
)

func TestD(t *testing.T) {
	if time.Since(time.Time{}) > 0 {
		t.Log("old")
	}
}
`, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			root := writeTree(t, map[string]string{row.path: row.src})
			code, out := runLint(t, root)
			if n := strings.Count(out, "compares a stopwatch reading") + strings.Count(out, "stopwatchAllowed lists"); n != row.want {
				t.Fatalf("want %d stopwatch findings, got %d:\n%s", row.want, n, out)
			}
			if (code == 1) != (row.want > 0) || code > 1 {
				t.Fatalf("exit = %d with %d findings wanted\n%s", code, row.want, out)
			}
		})
	}
}

// TestStageObserveRule: a stage histogram observed by hand is flagged
// anywhere outside internal/trace, in either spelling, as the worker node
// once observed its admission sample beside the admission span. Another
// histogram, a name built at run time, a test file and the trace package
// itself are fine.
func TestStageObserveRule(t *testing.T) {
	const node = `package worker

import "time"

type registry interface {
	Observe(name string, v float64)
	ObserveDuration(name string, d time.Duration)
}

func execute(reg registry, wait time.Duration) {
	reg.ObserveDuration("stage_admission_ms", wait)
	reg.Observe("stage_exec_ms", 1)
	reg.ObserveDuration("job_exec_ms", wait)
	reg.ObserveDuration("stage_ms", wait)
	reg.ObserveDuration("stage_"+"compile_ms", wait)
}
`
	rows := []struct {
		name, path, src string
		want            int
	}{
		{"worker node", "internal/worker/node.go", node, 2},
		{"outside internal", "bench/layers.go", strings.Replace(node, "package worker", "package main", 1), 2},
		{"test file", "internal/worker/node_test.go", node, 0},
		{"trace package", "internal/trace/trace.go", strings.Replace(node, "package worker", "package trace", 1), 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			root := writeTree(t, map[string]string{row.path: row.src})
			code, out := runLint(t, root)
			if n := strings.Count(out, "observed by hand"); n != row.want {
				t.Fatalf("want %d stage-observe findings, got %d:\n%s", row.want, n, out)
			}
			if (code == 1) != (row.want > 0) || code > 1 {
				t.Fatalf("exit = %d with %d findings wanted\n%s", code, row.want, out)
			}
		})
	}
}

// TestOrphanPackageRule: under a module root, an internal/ package with
// non-test files needs a non-test importer in another package. Its own
// files, its tests and other packages' tests do not count; a package of
// test files only, a package outside internal/, and a tree that is not a
// module root are not judged.
func TestOrphanPackageRule(t *testing.T) {
	const (
		gomod  = "module example.test/m\n\ngo 1.22\n"
		driver = "package soak\n\nfunc Run() {}\n"
		user   = "package main\n\nimport \"example.test/m/internal/soak\"\n\nfunc main() { soak.Run() }\n"
	)
	rows := []struct {
		name  string
		files map[string]string
		want  int
	}{
		{"imported by a command", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": driver, "cmd/tool/main.go": user}, 0},
		{"imported by a nested module", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": driver,
			"bench/go.mod": "module example.test/m/bench\n", "bench/main.go": user}, 0},
		{"imported by nobody", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": driver}, 1},
		{"imported by tests only", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": driver,
			"cmd/tool/main_test.go": user}, 1},
		{"imported by itself only", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": driver,
			"internal/soak/again.go": "package soak\n\nimport _ \"example.test/m/internal/soak\"\n"}, 1},
		{"nested package counted on its own", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": driver, "cmd/tool/main.go": user,
			"internal/soak/harness/harness.go": "package harness\n"}, 1},
		{"test files only", map[string]string{
			"go.mod": gomod, "internal/soak/soak_test.go": driver}, 0},
		{"outside internal", map[string]string{
			"go.mod": gomod, "examples/soak/soak.go": driver}, 0},
		{"not a module root", map[string]string{
			"internal/soak/soak.go": driver}, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			root := writeTree(t, row.files)
			for _, arg := range []string{root, root + "/..."} {
				code, out := runLint(t, arg)
				if n := strings.Count(out, "no non-test file outside it imports it"); n != row.want {
					t.Fatalf("%s: want %d orphan findings, got %d:\n%s", arg, row.want, n, out)
				}
				if (code == 1) != (row.want > 0) || code > 1 {
					t.Fatalf("%s: exit = %d with %d findings wanted\n%s", arg, code, row.want, out)
				}
			}
		})
	}
}

// TestTestOnlyExportRule: under a module root, an exported identifier
// declared in a non-test file under internal/ needs a non-test file that
// names it, in the module, in bench/ or in examples/. A test's use does
// not count. Allowlisted hooks, test files' declarations and, in every
// row, Rig.String (a standard-interface method) and helper (unexported)
// are not judged. An allowlist entry of the module that names no
// declaration is a finding of its own.
func TestTestOnlyExportRule(t *testing.T) {
	const (
		gomod = "module example.test/m\n\ngo 1.22\n"
		pkg   = "package soak\n\nfunc Run() {}\n\ntype Rig struct{}\n\nfunc (r *Rig) Hook() {}\n\nfunc (r *Rig) String() string { return \"\" }\n\nfunc helper() {}\n"
		user  = "package main\n\nimport \"example.test/m/internal/soak\"\n\nfunc main() { var r soak.Rig; soak.Run(); %s }\n"
	)
	rows := []struct {
		name  string
		files map[string]string
		allow string // allowlist key, relative to the module
		want  int    // test-only findings
		stale int    // stale allowlist findings
	}{
		{"named by a command", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": pkg, "cmd/tool/main.go": fmt.Sprintf(user, "r.Hook()")}, "", 0, 0},
		{"named only by a test", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": pkg, "cmd/tool/main.go": fmt.Sprintf(user, "_ = r"),
			"internal/soak/soak_test.go": "package soak\n\nfunc use(r *Rig) { r.Hook() }\n"}, "", 1, 0},
		{"named by nothing", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": pkg, "cmd/tool/main.go": fmt.Sprintf(user, "_ = r")}, "", 1, 0},
		{"named from bench", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": pkg, "cmd/tool/main.go": fmt.Sprintf(user, "_ = r"),
			"bench/go.mod": "module example.test/m/bench\n", "bench/main.go": fmt.Sprintf(user, "r.Hook()")}, "", 0, 0},
		{"named from examples", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": pkg, "cmd/tool/main.go": fmt.Sprintf(user, "_ = r"),
			"examples/demo/main.go": fmt.Sprintf(user, "r.Hook()")}, "", 0, 0},
		{"allowlisted", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": pkg, "cmd/tool/main.go": fmt.Sprintf(user, "_ = r")}, "internal/soak.Rig.Hook", 0, 0},
		{"stale allowlist entry", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": pkg, "cmd/tool/main.go": fmt.Sprintf(user, "r.Hook()")}, "internal/soak.Rig.Gone", 0, 1},
		{"declared in a test file", map[string]string{
			"go.mod": gomod, "internal/soak/soak.go": "package soak\n\nfunc Run() {}\n", "cmd/tool/main.go": "package main\n\nimport \"example.test/m/internal/soak\"\n\nfunc main() { soak.Run() }\n",
			"internal/soak/x_test.go": "package soak\n\nfunc Probe() {}\n"}, "", 0, 0},
		{"not a module root", map[string]string{
			"internal/soak/soak.go": pkg}, "internal/soak.Rig.Gone", 0, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			saved := testOnlyAllowed
			defer func() { testOnlyAllowed = saved }()
			testOnlyAllowed = map[string]bool{"other.test/m/internal/soak.Rig.Gone": true} // another module's entry is not judged
			if row.allow != "" {
				testOnlyAllowed["example.test/m/"+row.allow] = true
			}
			code, out := runLint(t, writeTree(t, row.files))
			n, stale := strings.Count(out, "only tests name it"), strings.Count(out, "testOnlyAllowed lists")
			if n != row.want || stale != row.stale || (code == 1) != (n+stale > 0) || code > 1 {
				t.Fatalf("exit %d, %d test-only and %d stale findings, want %d and %d:\n%s", code, n, stale, row.want, row.stale, out)
			}
			if n > 0 && !strings.Contains(out, "example.test/m/internal/soak.Rig.Hook is exported") {
				t.Fatalf("finding does not name the method:\n%s", out)
			}
		})
	}
}

func TestBadPathExitsTwo(t *testing.T) {
	if code, _ := runLint(t, filepath.Join(t.TempDir(), "missing")); code != 2 {
		t.Fatal("unreadable root should exit 2")
	}
}

// TestRepoIsClean runs the linter over the actual repository, which is
// the check CI performs: the tree itself must stay lint-clean.
func TestRepoIsClean(t *testing.T) {
	code, out := runLint(t, "../..")
	if code != 0 {
		t.Fatalf("repository has repolint findings:\n%s", out)
	}
}
