package markdown

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// SyncBlock keeps a generated block of the Markdown file at path equal to
// body, rewriting it when update is set; otherwise a stale block is an
// error that names the block and quotes its first moved line. Tests own
// the blocks: each renders a list from the code that holds it.
func SyncBlock(path, tag, body string, update bool) error {
	recorded, raw, err := Block(path, tag)
	if err != nil || recorded == body {
		return err
	}
	if !update {
		return fmt.Errorf("%s block %s is stale: %s; if the change is intended, rerun with -update",
			filepath.Base(path), tag, firstDiff(recorded, body))
	}
	open := "<!-- " + tag + " -->\n"
	return os.WriteFile(path, []byte(strings.Replace(raw, open+recorded, open+body, 1)), 0o644)
}

// Block returns the generated block named tag in the Markdown file at
// path, the text between a line "<!-- tag -->" and the next
// "<!-- /tag -->", and the whole file. A test whose list another test
// documents reads it here.
func Block(path, tag string) (body, raw string, err error) {
	b, err := os.ReadFile(path)
	open, end := "<!-- "+tag+" -->\n", "<!-- /"+tag+" -->"
	_, after, ok := strings.Cut(string(b), open)
	body, _, closed := strings.Cut(after, end)
	if err == nil && (!ok || !closed) {
		err = fmt.Errorf("%s has no %q ... %q block", filepath.Base(path), open, end)
	}
	return body, string(b), err
}

// firstDiff quotes the first line at which two different blocks differ.
func firstDiff(recorded, now string) string {
	a, b := strings.Split(recorded, "\n"), strings.Split(now, "\n")
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	a, b = append(a, ""), append(b, "")
	return fmt.Sprintf("block line %d: recorded %q, now %q", k+1, a[k], b[k])
}
