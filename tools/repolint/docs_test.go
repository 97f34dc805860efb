package main

import (
	"flag"
	"fmt"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"webgpu/internal/markdown"
)

var update = flag.Bool("update", false, "rewrite DESIGN.md's package inventory")

// TestInventoryDocumented keeps DESIGN.md's inventory equal to the
// repository's packages: every directory under internal/, cmd/ and tools/
// with non-test Go, with its package comment's synopsis.
func TestInventoryDocumented(t *testing.T) {
	var dirs []string
	synopses := map[string]string{}
	for _, top := range []string{"internal", "cmd", "tools"} {
		var found []string
		err := filepath.WalkDir(filepath.Join("../..", top), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				return err
			}
			dir, _ := filepath.Rel("../..", filepath.Dir(p))
			if _, seen := synopses[dir]; !seen {
				found = append(found, dir)
			}
			if synopses[dir] == "" {
				synopses[dir] = new(doc.Package).Synopsis(f.Doc.Text())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(found)
		dirs = append(dirs, found...)
	}
	var b strings.Builder
	b.WriteString("| Package | What it is |\n|---|---|\n")
	for _, dir := range dirs {
		if synopses[dir] == "" {
			t.Errorf("%s has no package comment", dir)
		}
		fmt.Fprintf(&b, "| `%s` | %s |\n", filepath.ToSlash(dir), strings.ReplaceAll(synopses[dir], "|", `\|`))
	}
	if err := markdown.SyncBlock("../../DESIGN.md", "gen:inventory", b.String(), *update); err != nil {
		t.Error(err)
	}
}

// docNamesAllowed are the backticked names DESIGN.md and README.md may use
// although no Go source or workflow spells them.
var docNamesAllowed = map[string]bool{}

// TestDocsNameOnlyCode: every backticked identifier in DESIGN.md and
// README.md, outside their generated blocks, is spelled somewhere in the
// Go sources or .github/workflows. A dotted name (Program.Launch) needs
// each part as a word there, a hyphenated one (tiled-matmul, -cache-dir)
// the whole name; a repository path (internal/castore) must exist.
func TestDocsNameOnlyCode(t *testing.T) {
	var corpus strings.Builder
	err := filepath.WalkDir("../..", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if d != nil && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		if strings.HasSuffix(p, ".go") || strings.Contains(filepath.ToSlash(p), ".github/workflows/") {
			data, err := os.ReadFile(p)
			corpus.Write(data)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	text := corpus.String()
	words := map[string]bool{}
	for _, w := range regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`).FindAllString(text, -1) {
		words[w] = true
	}
	dotted := regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?$`)
	hyphenated := regexp.MustCompile(`^-?[A-Za-z]\w*(-\w+)*$`)
	repoPath := regexp.MustCompile(`^(internal|cmd|tools|examples)/[\w/.-]*\w$`)
	genBlock := regexp.MustCompile(`(?s)<!-- (gen:[\w-]+) -->.*?<!-- /(gen:[\w-]+) -->`)
	for _, name := range []string{"DESIGN.md", "README.md"} {
		raw, err := os.ReadFile(filepath.Join("../..", name))
		if err != nil {
			t.Fatal(err)
		}
		prose := genBlock.ReplaceAllString(string(raw), "")
		for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(prose, -1) {
			id, found := m[1], true
			switch {
			case docNamesAllowed[id]:
			case dotted.MatchString(id):
				for _, part := range strings.Split(strings.TrimSuffix(id, "()"), ".") {
					found = found && words[part]
				}
			case hyphenated.MatchString(id):
				found = strings.Contains(text, strings.TrimPrefix(id, "-"))
			case repoPath.MatchString(id):
				_, err := os.Stat(filepath.Join("../..", id))
				found = err == nil
			}
			if !found {
				t.Errorf("%s names `%s`, which no Go source or workflow spells", name, id)
			}
		}
	}
}
