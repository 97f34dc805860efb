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
//     An entry of settleAllowed or stopwatchAllowed whose file the walk
//     reaches (and finds a function in) must name a function declared
//     there.
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
//   - Test-only exports: in the same pass, every exported package-level
//     func, type, var or const, and every exported method, declared in a
//     non-test file under the module's internal/ must be named by some
//     non-test file of the walked tree (the module, bench/, examples/).
//     Methods a standard interface reaches (stdMethods) are exempt, and a
//     hook a test drives is listed in testOnlyAllowed; an entry there that
//     names no declaration is a finding too. Struct fields are out of
//     scope. The match is by name only, so a name that anything else
//     shares passes: nothing called Platform.Overload, Server.Overload,
//     gpusim's Device.Index or ThreadCtx.Shared, yet the rule could not see
//     it beside reads of Options.Overload, strings.Index and minicuda's
//     Index node, and reads of Shared fields. Resolving types with
//     go/types and the source importer would see them, but it parses and
//     checks the standard library too and runs many times longer than the
//     whole linter.
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
	var exports []export                // exported declarations under a module's internal/
	named := map[string]bool{}          // identifiers some non-test file names
	funcs := map[string]bool{}          // settleKey of every function declared
	walked := map[string]bool{}         // the file part of those keys
	for _, path := range files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
		slash := filepath.ToSlash(path)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				key := settleKey(slash, fn)
				file, _, _ := strings.Cut(key, ":")
				funcs[key], walked[file] = true, true
			}
		}
		if strings.HasSuffix(slash, "_test.go") {
			if inPkg(slash, []string{"internal", "cmd", "tools"}) {
				all = append(all, checkStopwatch(fset, f, slash)...)
			}
			continue
		}
		all = append(all, lintFile(fset, f, path)...)
		self := packagePath(modules, path)
		if strings.Contains(self, "/internal/") {
			if internalPkgs[self] == "" {
				internalPkgs[self] = path
			}
			exports = append(exports, scanNames(fset, f, self, named)...)
		} else {
			scanNames(fset, f, "", named)
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
	all = append(all, checkTestOnlyExports(exports, named, modules)...)
	all = append(all, staleFuncKeys("settleAllowed", settleAllowed, funcs, walked)...)
	all = append(all, staleFuncKeys("stopwatchAllowed", stopwatchAllowed, funcs, walked)...)
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

func sortedKeys[V any](m map[string]V) []string {
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
// internal/, cmd/ or tools/ directory, then Recv.Func or Func.
func settleKey(slash string, fn *ast.FuncDecl) string {
	for _, dir := range []string{"internal/", "cmd/", "tools/"} {
		if i := strings.LastIndex(slash, dir); i >= 0 {
			slash = slash[i:]
			break
		}
	}
	if recv := recvName(fn); recv != "" {
		return slash + ":" + recv + "." + fn.Name.Name
	}
	return slash + ":" + fn.Name.Name
}

// staleFuncKeys flags each entry of the allowlist called name whose file
// was walked but declares no such function.
func staleFuncKeys(name string, allowed, funcs, walked map[string]bool) []finding {
	var out []finding
	for _, key := range sortedKeys(allowed) {
		if file, _, _ := strings.Cut(key, ":"); walked[file] && !funcs[key] {
			out = append(out, finding{pos: token.Position{Filename: "tools/repolint/main.go"},
				msg: name + " lists " + key + ", which its file does not declare; drop the entry"})
		}
	}
	return out
}

// recvName is the name of a method's receiver type, without pointer or
// type arguments, or "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
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

// testOnlyAllowed lists the exported identifiers, as importpath.Name or
// importpath.Recv.Name, that only tests may name: hooks a test in another
// package drives. Each line or group says why.
var testOnlyAllowed = map[string]bool{
	// Fault injection is armed and read back by the fault tests of castore,
	// db, progcache, worker, platform, macrobench and chaostest; Catalog is
	// the fault-point table DESIGN.md's block is generated from.
	"webgpu/internal/faultinject.Registry.Enable":      true,
	"webgpu/internal/faultinject.Registry.Disable":     true,
	"webgpu/internal/faultinject.Registry.DisableAll":  true,
	"webgpu/internal/faultinject.Registry.Fired":       true,
	"webgpu/internal/faultinject.Registry.Evaluations": true,
	"webgpu/internal/faultinject.Catalog":              true,
	// The broker's accounting invariant and depth, which the soaks of
	// chaostest, macrobench, platform and worker assert, and the
	// redelivery bound the chaostest, platform and queue tests lower.
	"webgpu/internal/queue.Broker.Unaccounted":    true,
	"webgpu/internal/queue.Broker.Depth":          true,
	"webgpu/internal/queue.Broker.SetMaxAttempts": true,
	// Read back by the tests of castore, overload, progcache, devsession,
	// platform, trace and worker.
	"webgpu/internal/metrics.Registry.Gauge": true,
	"webgpu/internal/metrics.Registry.Hist":  true,
	// Holds a compile inside the cache, for the worker, devsession and
	// webserver tests of what runs while a compile is in flight.
	"webgpu/internal/progcache.Cache.SetCompileFunc": true,
	// The WAL's recovery surface, driven by db's tests and webserver's
	// restart tests until stored history is durable (ROADMAP item 24).
	"webgpu/internal/db.WAL.Entries":     true,
	"webgpu/internal/db.DB.Replay":       true,
	"webgpu/internal/db.DB.Compact":      true,
	"webgpu/internal/db.DB.LoadSnapshot": true,
	// The tree-walking engine, the warp engine's oracle in minicuda's
	// differential tests, and a kernel helper the gpusim tests write in Go
	// (ROADMAP item 19).
	"webgpu/internal/minicuda.Program.LaunchTree":     true,
	"webgpu/internal/gpusim.ThreadCtx.GlobalThreadID": true,
	// Rewrites and checks the generated blocks of DESIGN.md and README.md
	// for the doc tests of ten packages and commands.
	"webgpu/internal/markdown.SyncBlock": true,
}

// stdMethods are method names a standard interface calls (error and
// errors' Unwrap/Is/As, fmt's Stringer/GoStringer/Formatter, http.Handler,
// the json and text codecs, io's Reader/Writer/Closer, sort.Interface):
// nothing in the tree may name them, yet the standard library reaches them.
var stdMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true, "GoString": true, "Format": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "Len": true, "Less": true, "Swap": true,
}

// export is one exported declaration: its allowlist key, its name and
// where it is declared.
type export struct {
	key, name string
	pos       token.Position
}

// scanNames adds to named every identifier the file names, except the
// names its package-level declarations and struct fields declare. When
// pkg is set it returns the file's exported package-level funcs, types,
// vars and consts and its exported methods, stdMethods aside.
func scanNames(fset *token.FileSet, f *ast.File, pkg string, named map[string]bool) []export {
	var out []export
	declared := map[*ast.Ident]bool{}
	declare := func(id *ast.Ident, recv string) {
		declared[id] = true
		if pkg != "" && id.IsExported() && (recv == "" || !stdMethods[id.Name]) {
			out = append(out, export{key: pkg + "." + recv + id.Name, name: id.Name, pos: fset.Position(id.Pos())})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if recv := recvName(d); recv != "" {
				declare(d.Name, recv+".")
			} else {
				declare(d.Name, "")
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declare(s.Name, "")
				case *ast.ValueSpec:
					for _, id := range s.Names {
						declare(id, "")
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.StructType: // visited before its fields' names
			for _, field := range x.Fields.List {
				for _, id := range field.Names {
					declared[id] = true
				}
			}
		case *ast.Ident:
			named[x.Name] = named[x.Name] || !declared[x]
		}
		return true
	})
	return out
}

// checkTestOnlyExports flags each export no non-test file names and
// testOnlyAllowed does not list, and each allowlist entry of a walked
// module that names no export.
func checkTestOnlyExports(exports []export, named map[string]bool, modules map[string]string) []finding {
	var out []finding
	declared := map[string]bool{}
	for _, e := range exports {
		declared[e.key] = true
		if !named[e.name] && !testOnlyAllowed[e.key] {
			out = append(out, finding{pos: e.pos,
				msg: e.key + " is exported but only tests name it; delete it, or let the test read unexported state"})
		}
	}
	var stale []string
	for key := range testOnlyAllowed {
		for _, mod := range modules {
			if strings.HasPrefix(key, mod+"/") && !declared[key] {
				stale = append(stale, key)
			}
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		out = append(out, finding{pos: token.Position{Filename: "tools/repolint/main.go"},
			msg: "testOnlyAllowed lists " + key + ", which is not declared; drop the entry"})
	}
	return out
}
