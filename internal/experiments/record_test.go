package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks from the current reports")

// recordPath is the paper-vs-measured record, relative to this package.
const recordPath = "../../EXPERIMENTS.md"

// TestExperiments is the record's regenerator and its check. Each
// experiment's report lives in EXPERIMENTS.md as a fenced block between
// <!-- experiment:<id> --> and <!-- /experiment:<id> -->; a report that
// differs from its block fails the subtest named by the ID, and -update
// rewrites the blocks instead. With -v, -run 'TestExperiments/<id>' prints
// one report.
func TestExperiments(t *testing.T) {
	raw, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	record := string(raw)
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			out := e.Run()
			if !strings.HasSuffix(out, "\n") {
				out += "\n"
			}
			if testing.Verbose() {
				fmt.Print(out)
			}
			open, end := "<!-- experiment:"+e.ID+" -->\n", "<!-- /experiment:"+e.ID+" -->"
			i, j := strings.Index(record, open), strings.Index(record, end)
			if i < 0 || j < i+len(open) {
				t.Fatalf("EXPERIMENTS.md has no %q ... %q block for %s", open, end, e.ID)
			}
			i += len(open)
			block := "```text\n" + out + "```\n"
			if recorded := record[i:j]; recorded != block {
				if *update {
					record = record[:i] + block + record[j:]
					return
				}
				t.Errorf("experiment %s no longer reproduces its EXPERIMENTS.md block (%s); "+
					"if the change is intended, run go test ./internal/experiments -run TestExperiments -update",
					e.ID, firstDiff(recorded, block))
			}
		})
	}
	if *update && record != string(raw) {
		if err := os.WriteFile(recordPath, []byte(record), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// firstDiff counts the lines at which two blocks differ and quotes the
// first.
func firstDiff(recorded, now string) string {
	a, b := strings.Split(recorded, "\n"), strings.Split(now, "\n")
	n, first := 0, ""
	for k := 0; k < len(a) || k < len(b); k++ {
		var x, y string
		if k < len(a) {
			x = a[k]
		}
		if k < len(b) {
			y = b[k]
		}
		if x != y {
			if n++; n == 1 {
				first = fmt.Sprintf("block line %d: recorded %q, now %q", k+1, x, y)
			}
		}
	}
	return fmt.Sprintf("%d line(s) differ; %s", n, first)
}
