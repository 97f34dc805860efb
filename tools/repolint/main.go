// Command repolint enforces repo-local invariants the general Go
// toolchain cannot express. It uses only the stdlib go/ast parser:
//
//   - Deterministic clocks: packages whose components all hold a
//     clock.Clock (internal/castore, internal/queue, internal/overload,
//     internal/devsession, internal/webserver), and internal/db and
//     internal/wb, which read no clock, must not name time.Now,
//     time.Since or a wall-clock timer (time.NewTimer, NewTicker, After,
//     AfterFunc, Sleep, Tick) in non-test files, called or not. Time there
//     comes from the component's clock, so a test's clock.Manual controls
//     its windows, heartbeats and timeouts too.
//
//   - Hot paths: files marked //kernelcheck:hotpath (the analyzer's
//     per-expression core) must not call fmt.Sprintf or import regexp;
//     both allocate or backtrack in code that runs per AST node per
//     draft keystroke.
//
//   - Hints from facts: internal/feedback must not import regexp in
//     non-test files. A hint is a function of the attempt's typed fault,
//     check result, counters and diagnostics; a pattern over source or
//     error text is the guesswork those facts replaced.
//
//   - Unstopped timers: non-test files under internal/ and cmd/ must not
//     call time.After. Under go.mod's go 1.22 each call allocates a timer
//     that lives until it fires, even after its wait is over, and one
//     taken on every turn of a loop is how a sleep ends up as the floor
//     of a latency; arm a time.Timer and stop it (or reuse it) instead.
//
//   - Lost write-throughs: under internal/, a file that imports
//     internal/castore must not drop the result of a Store.Put, with
//     `_ =` or as a bare statement. The store is best effort, but a
//     refused write is the only sign that the next restart will
//     recompile; count it (progcache's Stats.StoreErrors) or return it.
//
//   - Settled deliveries: under internal/ and cmd/, no function outside
//     settleAllowed may drop the error of a queue delivery's Ack() or
//     Nack(), with `_ =` or as a bare statement. A refused settle leaves
//     the message leased until its lease runs out; count it or report it.
//
//   - One instrument per stage: outside internal/trace, no Observe or
//     ObserveDuration call may name a stage histogram (a string literal
//     stage_<name>_ms). A stage's sample comes from its trace.Active's
//     End, the same clock reading as its span; a hand-placed observation
//     is a second instrument that drifts from the first.
//
//   - Stopwatch verdicts: under internal/, cmd/ and tools/, no test
//     function outside stopwatchAllowed may order-compare an operand that
//     calls time.Since or a .Sub method or names a time unit: such a
//     verdict moves with the host's speed. A for condition bounds a wait,
//     not a result, and is exempt.
//
//   - Orphan packages: when a directory argument is a module root (it
//     holds go.mod), a package under its internal/ that has non-test
//     files must be imported by a non-test file outside itself. One that
//     is not is either test support, whose files belong in _test.go, or
//     dead; either way nothing that ships can reach it.
//
// Usage: repolint [dir]... (default "."; dir/... means dir). Directories
// are walked for .go files; testdata and vendor trees are skipped. Exit
// code 1 when any finding is reported, 2 on usage or I/O problems.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// clockPkgs are the directories (matched as path segments) where the
// wall clock is banned in favor of the component's clock.Clock.
var clockPkgs = []string{
	"internal/castore",
	"internal/db",
	"internal/queue",
	"internal/overload",
	"internal/devsession",
	"internal/grader",
	"internal/webserver",
	"internal/wb",
}

// wallClock is what the time package offers that bypasses a clock.Clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true,
	"NewTimer": true, "NewTicker": true, "After": true, "AfterFunc": true, "Sleep": true, "Tick": true,
}

const hotpathMarker = "//kernelcheck:hotpath"

const castorePath = "webgpu/internal/castore"

// settleAllowed lists the functions, as file:Recv.Func, that may drop an
// Ack or Nack error.
var settleAllowed = map[string]bool{
	// The v2 driver's job loop settles on a lease it is about to abandon
	// anyway: a refused nack or ack leaves the job's lease to expire, and
	// the redelivery that follows (dropped downstream when the result was
	// published) is the at-least-once recovery the design counts on.
	"internal/worker/v2.go:Driver.loop": true,
}

// stopwatchAllowed lists the test functions, keyed as settleAllowed is,
// whose stopwatch comparisons stand until the clock they read is injected
// (ROADMAP items 11 and 16); each line says why.
var stopwatchAllowed = map[string]bool{
	"internal/faultinject/faultinject_test.go:TestLatencyOnlyFault": true, // a latency-only fault sleeps on the wall clock
	"internal/macrobench/soak_test.go:TestOverloadSoak":             true, // the soak's p99 bound, until soaks run in virtual time
	// A paused driver sleeps one poll interval on its wall-clock timer and
	// counts nothing, so "an unpause is seen within one interval" has no
	// counter to be restated by until that timer runs on a clock.Clock.
	"internal/worker/v2_wake_test.go:TestBlockedDriverKeepsConfigWatch": true,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type finding struct {
	pos token.Position
	msg string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		args = []string{"."}
	}
	var files []string
	modules := map[string]string{} // module root -> module path
	for _, root := range args {
		if root = strings.TrimSuffix(root, "..."); root == "" {
			root = "."
		}
		if mod := modulePath(root); mod != "" {
			modules[root] = mod
		}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				switch d.Name() {
				case "testdata", "vendor", ".git":
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	}
	sort.Strings(files)

	var all []finding
	internalPkgs := map[string]string{} // import path -> its first non-test file
	imported := map[string]bool{}       // import paths named from another package
	for _, path := range files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
		if slash := filepath.ToSlash(path); strings.HasSuffix(slash, "_test.go") {
			if inPkg(slash, []string{"internal", "cmd", "tools"}) {
				all = append(all, checkStopwatch(fset, f, slash)...)
			}
			continue
		}
		all = append(all, lintFile(fset, f, path)...)
		self := packagePath(modules, path)
		if strings.Contains(self, "/internal/") && internalPkgs[self] == "" {
			internalPkgs[self] = path
		}
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p != self {
				imported[p] = true
			}
		}
	}
	for _, pkg := range sortedKeys(internalPkgs) {
		if !imported[pkg] {
			all = append(all, finding{
				pos: token.Position{Filename: internalPkgs[pkg]},
				msg: fmt.Sprintf("package %s has non-test files but no non-test file outside it imports it; move test support into _test.go files or delete it", pkg),
			})
		}
	}
	for _, fd := range all {
		fmt.Fprintf(stdout, "%s: %s\n", fd.pos, fd.msg)
	}
	if len(all) > 0 {
		fmt.Fprintf(stdout, "repolint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// modulePath reads the module line of dir/go.mod, or returns "".
func modulePath(dir string) string {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// packagePath is the import path of the package a file belongs to, or ""
// when the file was not reached through a module root.
func packagePath(modules map[string]string, path string) string {
	for root, mod := range modules {
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			continue
		}
		if rel == "." {
			return mod
		}
		return mod + "/" + filepath.ToSlash(rel)
	}
	return ""
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func lintFile(fset *token.FileSet, f *ast.File, path string) []finding {
	var out []finding
	slash := filepath.ToSlash(path)
	if inPkg(slash, clockPkgs) {
		out = append(out, checkClockCalls(fset, f)...)
	}
	if isHotpath(f) {
		out = append(out, checkHotpath(fset, f)...)
	}
	if inPkg(slash, []string{"internal/feedback"}) {
		out = append(out, regexpImports(fset, f, "regexp imported in internal/feedback; a hint reads the attempt's facts, not its text")...)
	}
	if inPkg(slash, []string{"internal"}) && importName(f, castorePath) != "" {
		out = append(out, checkDroppedPuts(fset, f)...)
	}
	if !inPkg(slash, []string{"internal/trace"}) {
		out = append(out, checkStageObserves(fset, f)...)
	}
	if inPkg(slash, []string{"internal", "cmd"}) {
		out = append(out, checkTimeAfter(fset, f)...)
		out = append(out, checkDroppedSettles(fset, f, slash)...)
	}
	return out
}

// checkDroppedSettles flags dropped x.Ack() / x.Nack() results in every
// function that settleAllowed does not list.
func checkDroppedSettles(fset *token.FileSet, f *ast.File, slash string) []finding {
	var out []finding
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || settleAllowed[settleKey(slash, fn)] {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call := droppedCall(n)
			if call == nil || len(call.Args) != 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Ack" || sel.Sel.Name == "Nack") {
				out = append(out, finding{
					pos: fset.Position(call.Pos()),
					msg: sel.Sel.Name + " error dropped; a refused settle leaves the message leased, so count or report it",
				})
			}
			return true
		})
	}
	return out
}

// settleKey names a function for settleAllowed: the file's path from its
// internal/ or cmd/ directory, then Recv.Func or Func.
func settleKey(slash string, fn *ast.FuncDecl) string {
	for _, dir := range []string{"internal/", "cmd/", "tools/"} {
		if i := strings.LastIndex(slash, dir); i >= 0 {
			slash = slash[i:]
			break
		}
	}
	name := fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		t := fn.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return slash + ":" + name
}

// timeUnits are the time package's duration constants.
var timeUnits = map[string]bool{
	"Nanosecond": true, "Microsecond": true, "Millisecond": true, "Second": true, "Minute": true, "Hour": true,
}

// checkStopwatch flags ordered comparisons with a stopwatch operand in the
// test functions stopwatchAllowed does not list, outside for conditions.
func checkStopwatch(fset *token.FileSet, f *ast.File, slash string) []finding {
	timeName := importName(f, "time")
	var out []finding
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || timeName == "" || stopwatchAllowed[settleKey(slash, fn)] {
			continue
		}
		waits := map[ast.Node]bool{} // for conditions: a wait's bound, not a verdict
		held := stopwatchVars(fn.Body, timeName)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if loop, ok := n.(*ast.ForStmt); ok && loop.Cond != nil {
				waits[loop.Cond] = true
			}
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || waits[n] {
				return !waits[n]
			}
			switch cmp.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				if readsStopwatch(cmp.X, timeName, held) || readsStopwatch(cmp.Y, timeName, held) {
					out = append(out, finding{pos: fset.Position(cmp.OpPos),
						msg: "a test compares a stopwatch reading; assert the counted property it stands for"})
				}
			}
			return true
		})
	}
	return out
}

// readsStopwatch reports whether e calls time.Since or a Sub method,
// names a time unit or names a variable held lists.
func readsStopwatch(e ast.Expr, timeName string, held map[string]bool) (found bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			found = found || held[id.Name]
		}
		found = found || timeUnits[pkgSel(n, timeName)] || readsClock(n, timeName)
		return !found
	})
	return found
}

// readsClock reports whether n is a call of time.Since or of a Sub method.
func readsClock(n ast.Node, timeName string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return pkgSel(call.Fun, timeName) == "Since" || ok && sel.Sel.Name == "Sub"
}

// stopwatchVars returns the names the function assigns a time.Since or
// Sub reading to, as in took := time.Since(start), so that comparing the
// variable later counts as comparing the reading.
func stopwatchVars(body *ast.BlockStmt, timeName string) map[string]bool {
	held := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			ast.Inspect(rhs, func(n ast.Node) bool {
				held[id.Name] = held[id.Name] || readsClock(n, timeName)
				return !held[id.Name]
			})
		}
		return true
	})
	return held
}

// droppedCall returns the call whose result n throws away, as a bare
// statement or assigned to _, or nil.
func droppedCall(n ast.Node) *ast.CallExpr {
	var dropped ast.Expr
	switch st := n.(type) {
	case *ast.ExprStmt:
		dropped = st.X
	case *ast.AssignStmt:
		if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
			if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
				dropped = st.Rhs[0]
			}
		}
	}
	call, _ := dropped.(*ast.CallExpr)
	return call
}

// checkStageObserves flags x.Observe / x.ObserveDuration calls whose name
// argument is a stage histogram literal, stage_<name>_ms.
func checkStageObserves(fset *token.FileSet, f *ast.File) []finding {
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Observe" && sel.Sel.Name != "ObserveDuration") {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if rest, ok := strings.CutPrefix(name, "stage_"); err == nil && ok && strings.HasSuffix(rest, "_ms") && rest != "_ms" {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("%s observed by hand; a stage's histogram is observed by its trace stage's End", name),
			})
		}
		return true
	})
	return out
}

// inPkg reports whether the file lies in one of the listed directories.
func inPkg(slash string, pkgs []string) bool {
	for _, pkg := range pkgs {
		if strings.Contains(slash, pkg+"/") || strings.HasSuffix(filepath.Dir(slash), pkg) {
			return true
		}
	}
	return false
}

// importName returns the identifier a file refers to importPath by, or
// "" if the file does not import it.
func importName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != importPath {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// pkgCall reports whether n is a call pkg.Name(...) through the file's
// import of pkg (not a local variable of that name), and returns it with
// the selected name.
func pkgCall(n ast.Node, pkg string) (*ast.CallExpr, string) {
	if call, ok := n.(*ast.CallExpr); ok {
		return call, pkgSel(call.Fun, pkg)
	}
	return nil, ""
}

// pkgSel returns Name when n is the selector pkg.Name through the file's
// import of pkg, and "" otherwise.
func pkgSel(n ast.Node, pkg string) string {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != pkg || id.Obj != nil {
		return ""
	}
	return sel.Sel.Name
}

// checkClockCalls flags every use of a wallClock name, a call or a bare
// reference (time.Now stored as a clock is the wall clock all the same).
func checkClockCalls(fset *token.FileSet, f *ast.File) []finding {
	timeName := importName(f, "time")
	if timeName == "" {
		return nil
	}
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		if name := pkgSel(n, timeName); wallClock[name] {
			out = append(out, finding{
				pos: fset.Position(n.Pos()),
				msg: fmt.Sprintf("time.%s in a deterministic-clock package; use the component's clock.Clock", name),
			})
		}
		return true
	})
	return out
}

// checkTimeAfter flags every time.After call.
func checkTimeAfter(fset *token.FileSet, f *ast.File) []finding {
	timeName := importName(f, "time")
	if timeName == "" {
		return nil
	}
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		if call, name := pkgCall(n, timeName); name == "After" {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: "time.After call; arm a time.Timer and stop it on return, or reuse one",
			})
		}
		return true
	})
	return out
}

// checkDroppedPuts flags x.Put(key, blob, payload) calls whose error is
// thrown away. There is no type information here, so the receiver is
// recognised by the file's castore import and the method's name and
// arity. db.Tx.Put shares both, so in a file that imports castore a
// dropped commit error is reported as well; it deserves no less.
func checkDroppedPuts(fset *token.FileSet, f *ast.File) []finding {
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		call := droppedCall(n)
		if call == nil || len(call.Args) != 3 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Put" {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: "Put result dropped in a file that writes through to castore; count the lost write or return the error",
			})
		}
		return true
	})
	return out
}

func isHotpath(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == hotpathMarker {
				return true
			}
		}
	}
	return false
}

// regexpImports flags an import of regexp with msg.
func regexpImports(fset *token.FileSet, f *ast.File, msg string) []finding {
	var out []finding
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "regexp" {
			out = append(out, finding{pos: fset.Position(imp.Pos()), msg: msg})
		}
	}
	return out
}

// checkHotpath flags fmt.Sprintf calls and any regexp import in files
// carrying the hotpath marker.
func checkHotpath(fset *token.FileSet, f *ast.File) []finding {
	out := regexpImports(fset, f, "regexp imported in a //kernelcheck:hotpath file; hand-roll the scan instead")
	fmtName := importName(f, "fmt")
	if fmtName == "" {
		return out
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, name := pkgCall(n, fmtName); name == "Sprintf" {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: "fmt.Sprintf call in a //kernelcheck:hotpath file; build the string with strconv/Builder",
			})
		}
		return true
	})
	return out
}
