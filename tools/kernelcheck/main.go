// Command kernelcheck runs the static kernel analyzer on .cu/.cl files
// from the command line — the same passes the worker runs at submit time
// (barrier divergence, shared-memory races, bounds, coalescing/bank
// advisories, hygiene), usable locally before pushing a lab or example.
//
// Usage: kernelcheck [-dialect auto|cuda|opencl] [-fail-on error|warn|never]
// [-json] <file|dir>...
//
// Directories are walked for .cu and .cl files. -json prints one JSON
// object per file (stable field order: file, compile_error, diagnostics;
// each diagnostic carries its rule ID, severity, and position) instead
// of the human lines.
//
// The exit code is 1 when any file fails to compile or produces a
// diagnostic at or above the -fail-on severity (default: error), 2 on
// usage or I/O problems (unknown flags, unreadable paths, no kernel
// files found).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/minicuda"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fileResult is one file's outcome in -json mode. Diagnostics is never
// null so consumers can always range over it.
type fileResult struct {
	File         string                   `json:"file"`
	CompileError string                   `json:"compile_error,omitempty"`
	Diagnostics  []kernelcheck.Diagnostic `json:"diagnostics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("kernelcheck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	dialectFlag := fl.String("dialect", "auto",
		"kernel dialect: auto (by extension/content), cuda, or opencl")
	failOn := fl.String("fail-on", "error",
		"minimum severity that makes the exit code nonzero: error, warn, or never")
	jsonOut := fl.Bool("json", false,
		"emit one JSON object per file instead of human-readable lines")
	fl.Usage = func() {
		fmt.Fprintln(stderr, "usage: kernelcheck [-dialect auto|cuda|opencl] [-fail-on error|warn|never] [-json] <file|dir>...")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() == 0 {
		fl.Usage()
		return 2
	}
	var threshold int
	switch *failOn {
	case "error":
		threshold = 3
	case "warn":
		threshold = 2
	case "never":
		threshold = 4 // above every real severity
	default:
		fmt.Fprintf(stderr, "kernelcheck: unknown -fail-on %q\n", *failOn)
		return 2
	}

	files, err := collect(fl.Args())
	if err != nil {
		fmt.Fprintln(stderr, "kernelcheck:", err)
		return 2
	}
	if len(files) == 0 {
		fmt.Fprintln(stderr, "kernelcheck: no .cu or .cl files found")
		return 2
	}

	enc := json.NewEncoder(stdout)
	failed := false
	total := 0
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "kernelcheck:", err)
			return 2
		}
		src := string(raw)
		diags, err := kernelcheck.AnalyzeSource(src, pickDialect(*dialectFlag, path, src))
		if *jsonOut {
			res := fileResult{File: path, Diagnostics: diags}
			if res.Diagnostics == nil {
				res.Diagnostics = []kernelcheck.Diagnostic{}
			}
			if err != nil {
				res.CompileError = err.Error()
			}
			if eerr := enc.Encode(res); eerr != nil {
				fmt.Fprintln(stderr, "kernelcheck:", eerr)
				return 2
			}
		}
		if err != nil {
			if !*jsonOut {
				fmt.Fprintf(stdout, "%s: compile error: %v\n", path, err)
			}
			failed = true
			continue
		}
		total += len(diags)
		for _, d := range diags {
			if !*jsonOut {
				fmt.Fprintf(stdout, "%s:%s\n", path, d)
			}
			if severityRank(d.Severity) >= threshold {
				failed = true
			}
		}
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "kernelcheck: %d file(s), %d diagnostic(s)\n", len(files), total)
	}
	if failed {
		return 1
	}
	return 0
}

// collect expands the arguments into a sorted, de-duplicated list of
// kernel files, walking directories for .cu/.cl.
func collect(args []string) ([]string, error) {
	seen := map[string]bool{}
	var files []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			files = append(files, p)
		}
	}
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			add(arg)
			continue
		}
		err = filepath.WalkDir(arg, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && kernelExt(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}

func kernelExt(p string) bool {
	switch filepath.Ext(p) {
	case ".cu", ".cl":
		return true
	}
	return false
}

func pickDialect(flagVal, path, src string) minicuda.Dialect {
	switch flagVal {
	case "cuda":
		return minicuda.DialectCUDA
	case "opencl":
		return minicuda.DialectOpenCL
	}
	if filepath.Ext(path) == ".cl" || strings.Contains(src, "__kernel") {
		return minicuda.DialectOpenCL
	}
	return minicuda.DialectCUDA
}

func severityRank(s kernelcheck.Severity) int {
	switch s {
	case kernelcheck.SevError:
		return 3
	case kernelcheck.SevWarn:
		return 2
	default:
		return 1
	}
}
