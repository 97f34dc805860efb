// Command webgpu-bench regenerates every table and figure of the WebGPU
// paper plus the derived ablations. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for the paper-vs-measured record. The
// performance benchmark is bench/ (`go run -C bench .`).
//
// Usage:
//
//	webgpu-bench -list
//	webgpu-bench -exp table1
//	webgpu-bench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"webgpu/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	exp := flag.String("exp", "", "experiment id to run, or 'all'")
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Name)
		}
		return
	}

	id := *exp
	if id == "" {
		id = "all"
	}
	run := func(e experiments.Experiment) {
		start := time.Now()
		out := e.Run()
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if id == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e := experiments.ByID(id)
	if e == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
		os.Exit(1)
	}
	run(*e)
}
