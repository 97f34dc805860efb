package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"webgpu/internal/markdown"
)

var update = flag.Bool("update", false, "rewrite README.md's flag table from the command's flags")

// TestFlagsDocumented keeps README.md's table of this command's flags
// equal to the flags it defines.
func TestFlagsDocumented(t *testing.T) {
	var b strings.Builder
	b.WriteString("| flag | default | meaning |\n|---|---|---|\n")
	flag.VisitAll(func(f *flag.Flag) {
		if f.Name == "update" || strings.HasPrefix(f.Name, "test.") {
			return // the test binary's own flags
		}
		def := "empty"
		if f.DefValue != "" {
			def = "`" + f.DefValue + "`"
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s |\n", f.Name, def, f.Usage)
	})
	if err := markdown.SyncBlock("../../README.md", "gen:flags-minicuda", b.String(), *update); err != nil {
		t.Error(err)
	}
}
