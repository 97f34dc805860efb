package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"webgpu/internal/markdown"
)

var update = flag.Bool("update", false, "rewrite README.md's flag table from the command's flags")

// TestFlagsDocumented keeps README.md's table of this command's flags
// equal to the flags it defines.
func TestFlagsDocumented(t *testing.T) {
	if os.Getenv("WEBGPU_CACHE_DIR")+os.Getenv("WEBGPU_CACHE_MAX_BYTES") != "" {
		t.Skip("the cache flags default to WEBGPU_CACHE_DIR and WEBGPU_CACHE_MAX_BYTES, which are set")
	}
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
	if err := markdown.SyncBlock("../../README.md", "gen:flags-webgpu-worker", b.String(), *update); err != nil {
		t.Error(err)
	}
}

// TestUnservableLabExits: a lab whose requirements no worker of the fleet
// meets must end the rig with status 1, not leave it waiting for results
// that never come.
func TestUnservableLabExits(t *testing.T) {
	for name, value := range map[string]string{"lab": "mpi-stencil", "gpus": "1", "workers": "1", "jobs": "2"} {
		old := flag.Lookup(name).Value.String()
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
		defer flag.Set(name, old)
	}
	status := make(chan int, 1)
	go func() { status <- run() }()
	select {
	case got := <-status:
		if got != 1 {
			t.Errorf("run() = %d, want 1", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run() still waiting after 10s on a lab the fleet cannot serve")
	}
}
