package kernelcheck

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"webgpu/internal/markdown"
	"webgpu/internal/minicuda"
)

var update = flag.Bool("update", false, "rewrite golden .diag files and DESIGN.md's rule table from current analyzer output")

// TestRulesDocumented keeps DESIGN.md's rule table equal to Rules().
func TestRulesDocumented(t *testing.T) {
	var b strings.Builder
	b.WriteString("| Rule | Severity | Fires on |\n|---|---|---|\n")
	for _, r := range Rules() {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", r.ID, r.Severity, r.Summary)
	}
	if err := markdown.SyncBlock("../../DESIGN.md", "gen:kernelcheck-rules", b.String(), *update); err != nil {
		t.Error(err)
	}
}

// TestCorpus runs the analyzer over every kernel in testdata and
// compares the diagnostics against the golden .diag file next to it.
// Kernels named known_limit_* document analyses the checker is known to
// get wrong (false negatives/positives) — their goldens record today's
// behavior so a change in either direction is visible in review.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cu"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 40 {
		t.Errorf("corpus has %d kernels, want at least 40", len(files))
	}
	sort.Strings(files)
	for _, f := range files {
		f := f
		name := strings.TrimSuffix(filepath.Base(f), ".cu")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			dialect := minicuda.DialectCUDA
			if strings.Contains(string(src), "__kernel") {
				dialect = minicuda.DialectOpenCL
			}
			diags, err := AnalyzeSource(string(src), dialect)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var sb strings.Builder
			for _, d := range diags {
				sb.WriteString(d.String())
				sb.WriteString("\n")
			}
			got := sb.String()
			golden := strings.TrimSuffix(f, ".cu") + ".diag"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantB, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(wantB) {
				t.Errorf("diagnostics differ from golden\n--- got ---\n%s--- want ---\n%s", got, wantB)
			}
		})
	}
}

// TestAnalyzeDeterministic re-analyzes one corpus kernel repeatedly and
// requires byte-identical output: map iteration anywhere on a reporting
// path would show up here.
func TestAnalyzeDeterministic(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "race_tiled_missing_sync.cu"))
	if err != nil {
		t.Skip("corpus kernel not present")
	}
	var first string
	for i := 0; i < 20; i++ {
		diags, err := AnalyzeSource(string(src), minicuda.DialectCUDA)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, d := range diags {
			sb.WriteString(d.String())
			sb.WriteString("\n")
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, sb.String(), first)
		}
	}
}
