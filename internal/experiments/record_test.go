package experiments

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"webgpu/internal/markdown"
)

var update = flag.Bool("update", false, "rewrite the generated blocks of EXPERIMENTS.md and DESIGN.md")

// TestExperiments is the record's regenerator and its check. Each
// experiment's report lives in EXPERIMENTS.md as a fenced block between
// <!-- experiment:<id> --> and <!-- /experiment:<id> -->; a report that
// differs from its block fails the subtest named by the ID, and -update
// rewrites the blocks instead. With -v, -run 'TestExperiments/<id>' prints
// one report.
func TestExperiments(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			out := e.Run()
			if !strings.HasSuffix(out, "\n") {
				out += "\n"
			}
			if testing.Verbose() {
				fmt.Print(out)
			}
			if err := markdown.SyncBlock("../../EXPERIMENTS.md", "experiment:"+e.ID, "```text\n"+out+"```\n", *update); err != nil {
				t.Errorf("experiment %s no longer reproduces its record: %v", e.ID, err)
			}
		})
	}
}

// TestExperimentIndex keeps DESIGN.md's experiment index, ID → title →
// what the paper reports, equal to All().
func TestExperimentIndex(t *testing.T) {
	var b strings.Builder
	b.WriteString("| ID | Experiment | The paper reports |\n|---|---|---|\n")
	for _, e := range All() {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", e.ID, e.Name, e.Paper)
	}
	if err := markdown.SyncBlock("../../DESIGN.md", "gen:experiments", b.String(), *update); err != nil {
		t.Error(err)
	}
}
