// Command repolint enforces repo-local invariants the general Go
// toolchain cannot express, using only the stdlib go/ast parser:
//
//   - Deterministic clocks: packages that model time through an injected
//     clock (internal/overload, internal/devsession) must not call
//     time.Now or time.Since directly in non-test files. Storing the
//     function value (`c.Clock = time.Now`) is allowed — that IS the
//     seam; calling it directly bypasses the seam and makes rate limits
//     and eviction untestable.
//
//   - Hot paths: files marked //kernelcheck:hotpath (the analyzer's
//     per-expression core) must not call fmt.Sprintf or import regexp;
//     both allocate or backtrack in code that runs per AST node per
//     draft keystroke.
//
//   - Request-path timers: the dispatch and live-session packages
//     (internal/devsession, internal/queue, internal/worker,
//     internal/platform) must not call time.After inside a for body in
//     non-test files. Each call allocates a timer that lives until it
//     fires, and a wait taken on every turn of a loop is how a sleep
//     ends up as the floor of a latency; reuse one time.Timer.
//
//   - Lost write-throughs: under internal/, a file that imports
//     internal/castore must not drop the result of a Store.Put, with
//     `_ =` or as a bare statement. The store is best effort, but a
//     refused write is the only sign that the next restart will
//     recompile; count it (progcache's Stats.StoreErrors) or return it.
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

// clockPkgs are the directories (matched as path segments) where direct
// wall-clock calls are banned in favor of the package's clock seam.
var clockPkgs = []string{
	"internal/overload",
	"internal/devsession",
}

// timerPkgs are the directories whose loops serve requests (draft pickup,
// broker dispatch, worker drivers) and must reuse one timer.
var timerPkgs = []string{
	"internal/devsession",
	"internal/queue",
	"internal/worker",
	"internal/platform",
}

const hotpathMarker = "//kernelcheck:hotpath"

const castorePath = "webgpu/internal/castore"

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
			if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
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
	if inPkg(slash, timerPkgs) {
		out = append(out, checkLoopTimers(fset, f)...)
	}
	if isHotpath(f) {
		out = append(out, checkHotpath(fset, f)...)
	}
	if inPkg(slash, []string{"internal"}) && importName(f, castorePath) != "" {
		out = append(out, checkDroppedPuts(fset, f)...)
	}
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
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != pkg || id.Obj != nil {
		return nil, ""
	}
	return call, sel.Sel.Name
}

// checkClockCalls flags direct time.Now()/time.Since() call expressions.
// A bare reference (assigning time.Now to a clock field) does not match:
// only the CallExpr form defeats the injected clock.
func checkClockCalls(fset *token.FileSet, f *ast.File) []finding {
	timeName := importName(f, "time")
	if timeName == "" {
		return nil
	}
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		if call, name := pkgCall(n, timeName); name == "Now" || name == "Since" {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("direct time.%s call in a deterministic-clock package; route it through the package's clock seam", name),
			})
		}
		return true
	})
	return out
}

// checkLoopTimers flags time.After calls lexically inside a for or range
// body.
func checkLoopTimers(fset *token.FileSet, f *ast.File) []finding {
	timeName := importName(f, "time")
	if timeName == "" {
		return nil
	}
	seen := map[token.Pos]bool{} // a call in nested loops is one finding
	var out []finding
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if call, name := pkgCall(n, timeName); name == "After" && !seen[call.Pos()] {
				seen[call.Pos()] = true
				out = append(out, finding{
					pos: fset.Position(call.Pos()),
					msg: "time.After call inside a loop on a request path; arm one reusable time.Timer instead",
				})
			}
			return true
		})
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
		call, ok := dropped.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
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

// checkHotpath flags fmt.Sprintf calls and any regexp import in files
// carrying the hotpath marker.
func checkHotpath(fset *token.FileSet, f *ast.File) []finding {
	var out []finding
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "regexp" {
			out = append(out, finding{
				pos: fset.Position(imp.Pos()),
				msg: "regexp imported in a //kernelcheck:hotpath file; hand-roll the scan instead",
			})
		}
	}
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
