// Command minicuda is the toolchain front end: it compiles a CUDA (or
// OpenCL) source file the way a WebGPU worker node would, reporting
// diagnostics, kernel signatures, and shared-memory usage — and, with
// -lab, runs the file as a submission against a lab's datasets (the
// offline-development path of §IV-C).
//
// Usage:
//
//	minicuda solution.cu
//	minicuda -dialect opencl kernel.cl
//	minicuda -lab tiled-matmul -dataset -1 solution.cu
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
)

func main() {
	dialect := flag.String("dialect", "cuda", "source dialect: cuda, opencl, or openacc")
	labID := flag.String("lab", "", "run the file as a submission for this lab")
	dataset := flag.Int("dataset", -1, "dataset index (-1 = all datasets)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: minicuda [-dialect cuda|opencl] [-lab id [-dataset n]] file.cu")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	if *labID != "" {
		runAsSubmission(*labID, string(src), *dataset)
		return
	}

	d := minicuda.DialectCUDA
	switch *dialect {
	case "opencl":
		d = minicuda.DialectOpenCL
	case "openacc":
		d = minicuda.DialectOpenACC
	}
	prog, err := minicuda.Compile(string(src), d)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}
	fmt.Printf("%s: compiled OK (%s dialect)\n", flag.Arg(0), d)
	for _, name := range prog.Kernels() {
		fn := prog.Kernel(name)
		fmt.Printf("  kernel %s: %d parameter(s), %d bytes static __shared__\n",
			name, len(fn.Params), fn.SharedUse)
	}
	if prog.ConstSize() > 0 {
		fmt.Printf("  __constant__ memory: %d bytes\n", prog.ConstSize())
	}
}

func runAsSubmission(labID, src string, dataset int) {
	l := labs.ByID(labID)
	if l == nil {
		var ids []string
		for _, l := range labs.All() {
			ids = append(ids, l.ID)
		}
		log.Fatalf("unknown lab %q; the catalog is %s", labID, strings.Join(ids, ", "))
	}
	gpus := l.NumGPUs
	if gpus == 0 {
		gpus = 1
	}
	devices := labs.NewDeviceSet(gpus)
	run := func(ds int) bool {
		o := labs.Run(context.Background(), l, src, ds, devices, 0)
		switch {
		case !o.Compiled:
			fmt.Printf("dataset %d: COMPILE ERROR: %s\n", ds, o.CompileError)
		case o.RuntimeError != "":
			fmt.Printf("dataset %d: RUNTIME ERROR: %s\n", ds, o.RuntimeError)
		case o.Correct:
			fmt.Printf("dataset %d: PASS (%s; simulated GPU time %v)\n", ds, o.CheckMessage, o.SimTime)
		default:
			fmt.Printf("dataset %d: FAIL: %s\n", ds, o.CheckMessage)
		}
		return o.Correct
	}
	if dataset >= 0 {
		if !run(dataset) {
			os.Exit(1)
		}
		return
	}
	pass := 0
	for ds := 0; ds < l.NumDatasets; ds++ {
		if run(ds) {
			pass++
		}
	}
	fmt.Printf("%d/%d datasets passed\n", pass, l.NumDatasets)
	if pass != l.NumDatasets {
		os.Exit(1)
	}
}
