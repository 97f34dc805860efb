package main

import (
	"bytes"
	"os"
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

func TestClockValueReferenceAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/devsession/ok.go": `package devsession

import "time"

type cfg struct{ Clock func() time.Time }

func defaults(c cfg) cfg {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}
`,
	})
	if code, out := runLint(t, root); code != 0 {
		t.Fatalf("value reference flagged: exit = %d\n%s", code, out)
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

// TestLoopTimerRule: time.After inside a for or range body is banned in
// the request-path packages, once per call however deep the nesting; the
// same call outside a loop, in a test file or in another package is fine.
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
	rows := []struct {
		name, path, src string
		want            int
	}{
		{"devsession loop", "internal/devsession/loop.go", "package devsession" + loopSrc, 2},
		{"queue loop", "internal/queue/loop.go", "package queue" + loopSrc, 2},
		{"worker loop", "internal/worker/loop.go", "package worker" + loopSrc, 2},
		{"platform loop", "internal/platform/loop.go", "package platform" + loopSrc, 2},
		{"test file", "internal/queue/loop_test.go", "package queue" + loopSrc, 0},
		{"unlisted package", "internal/mpi/loop.go", "package mpi" + loopSrc, 0},
		{"outside a loop", "internal/worker/once.go", `package worker

import "time"

func f(done chan struct{}) bool {
	select {
	case <-done:
		return true
	case <-time.After(time.Second):
		return false
	}
}
`, 0},
		{"reused timer", "internal/devsession/timer.go", `package devsession

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
			if n := strings.Count(out, "time.After call inside a loop"); n != row.want {
				t.Fatalf("want %d loop-timer findings, got %d:\n%s", row.want, n, out)
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
