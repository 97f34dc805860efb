// Command webgpu-worker runs a standalone worker fleet against an
// in-process broker under a synthetic job stream — the load-testing rig
// used to size worker fleets before a deadline week (§III: "We increased
// the number of GPUs available to WebGPU the day before the deadline").
//
// Usage:
//
//	webgpu-worker -workers 4 -jobs 100 -lab tiled-matmul
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"webgpu/internal/castore"
	"webgpu/internal/labs"
	"webgpu/internal/progcache"
	"webgpu/internal/queue"
	"webgpu/internal/worker"
)

func main() {
	workers := flag.Int("workers", 2, "worker drivers to run")
	gpus := flag.Int("gpus", 2, "simulated GPUs per worker")
	jobs := flag.Int("jobs", 50, "jobs to push through the broker")
	labID := flag.String("lab", "vector-add", "lab whose reference solution to run")
	dataset := flag.Int("dataset", 0, "dataset index (-1 = all)")
	cacheDir := flag.String("cache-dir", os.Getenv("WEBGPU_CACHE_DIR"),
		"durable artifact store directory shared with other fleets (default $WEBGPU_CACHE_DIR; empty = memory-only)")
	flag.Parse()

	l := labs.ByID(*labID)
	if l == nil {
		log.Fatalf("unknown lab %q", *labID)
	}

	// The fleet shares one program cache; with -cache-dir it reads
	// through to the durable store, so a fleet restarted against a warm
	// directory never recompiles the lab's working set.
	progs := progcache.New(progcache.DefaultCapacity, nil)
	var store *castore.Store
	if *cacheDir != "" {
		var err error
		store, err = castore.Open(*cacheDir, castore.Options{})
		if err != nil {
			log.Fatalf("artifact store: %v", err)
		}
		defer store.Close()
		progs.SetStore(store)
	}

	broker := queue.NewBroker()
	cfgSrv := worker.NewConfigServer(worker.DefaultConfig())
	fleet := worker.NewFleet(broker, cfgSrv, func(id string) *worker.Node {
		cfg := worker.DefaultNodeConfig(id)
		cfg.GPUs = *gpus
		cfg.ProgCache = progs
		return worker.NewNode(cfg)
	})
	fleet.Scale(*workers)
	defer fleet.Stop()

	start := time.Now()
	for i := 0; i < *jobs; i++ {
		job := &worker.Job{
			ID:           fmt.Sprintf("job-%05d", i),
			LabID:        l.ID,
			UserID:       fmt.Sprintf("load-user-%03d", i%97),
			Source:       l.Reference,
			DatasetID:    *dataset,
			Requirements: l.Requirements,
		}
		if _, err := broker.Publish(worker.TopicJobs, worker.EncodeJob(job), l.Requirements...); err != nil {
			log.Fatal(err)
		}
	}

	caps := map[string]bool{}
	correct, failed, settleErrs := 0, 0, 0
	// settle reports an ack or nack the broker refused: that result's
	// lease runs out and it is delivered again.
	settle := func(what string, err error) {
		if err != nil {
			settleErrs++
			fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		}
	}
	for done := 0; done < *jobs; {
		d, ok, err := broker.Poll(worker.TopicResults, "collector", caps, time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		res, err := worker.DecodeResult(d.Msg.Payload)
		if err != nil {
			settle("nack undecodable result", d.Nack())
			continue
		}
		if res.Correct() {
			correct++
		} else {
			failed++
			fmt.Fprintf(os.Stderr, "job %s failed: %s\n", res.JobID, res.Error)
		}
		settle("ack result of "+res.JobID, d.Ack())
		done++
	}
	elapsed := time.Since(start)

	fmt.Printf("lab:        %s (%s)\n", l.Name, l.ID)
	fmt.Printf("fleet:      %d workers x %d GPUs\n", *workers, *gpus)
	fmt.Printf("jobs:       %d total, %d correct, %d failed, %d unsettled results\n", *jobs, correct, failed, settleErrs)
	fmt.Printf("wall time:  %v (%.1f jobs/s)\n", elapsed.Round(time.Millisecond),
		float64(*jobs)/elapsed.Seconds())
	fmt.Printf("broker:     %+v\n", broker.Stats())
	cs := progs.Stats()
	fmt.Printf("prog cache: %d hits, %d misses, %d compiles, %d disk hits\n",
		cs.Hits, cs.Misses, cs.Compiles, cs.DiskHits)
	if store != nil {
		fmt.Printf("artifacts:  %+v\n", store.Stats())
	}
}
