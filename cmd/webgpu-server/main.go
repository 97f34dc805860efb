// Command webgpu-server runs a complete WebGPU deployment: the web tier,
// database, and an in-process worker fleet polling a message broker.
// Students point a browser or API client at it.
//
// Usage:
//
//	webgpu-server -addr :8080 -workers 4 -course HPP
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/platform"
)

var (
	addr     = flag.String("addr", ":8080", "listen address")
	workers  = flag.Int("workers", 2, "initial worker count")
	gpus     = flag.Int("gpus", 2, "simulated GPUs per worker")
	course   = flag.String("course", "HPP", "course: HPP, 408, 598, or PUMPS")
	cacheDir = flag.String("cache-dir", os.Getenv("WEBGPU_CACHE_DIR"),
		"durable artifact store directory (default $WEBGPU_CACHE_DIR; empty = memory-only)")
	cacheMax = flag.Int64("cache-max-bytes", envInt64("WEBGPU_CACHE_MAX_BYTES", 0),
		"artifact store size bound in bytes (0 = unbounded)")
)

func main() {
	flag.Parse()

	p := platform.New(platform.Options{
		Workers:       *workers,
		GPUsPerWorker: *gpus,
		Course:        labs.Course(*course),
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
	})
	defer p.Close()
	if store := p.ArtifactStore(); store != nil {
		log.Printf("artifact store: %s (%d objects on disk)", store.Dir(), store.Stats().Objects)
	}

	// Default deadlines: weekly Thursdays from now, one per lab, matching
	// the 2015 offering's cadence.
	deadline := nextWeekday(time.Now(), time.Thursday)
	for i, l := range labs.ForCourse(labs.Course(*course)) {
		p.Server.SetDeadline(l.ID, deadline.AddDate(0, 0, 7*i))
	}

	// The administrator dashboard (§VI-A) sits next to the student API.
	mux := http.NewServeMux()
	mux.Handle("/", p.Handler())
	mux.HandleFunc("GET /admin/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(p.Status().Render()))
	})

	log.Printf("WebGPU: course %s, %d workers x %d GPUs, listening on %s",
		*course, p.Workers(), *gpus, *addr)
	log.Printf("labs: %d available; POST /api/v1/register to begin; GET /admin/status for the dashboard",
		len(labs.ForCourse(labs.Course(*course))))
	if err := http.ListenAndServe(*addr, mux); err != nil {
		log.Fatal(err)
	}
}

// envInt64 reads an integer environment variable, falling back on absence
// or a parse failure.
func envInt64(name string, def int64) int64 {
	if v, err := strconv.ParseInt(os.Getenv(name), 10, 64); err == nil {
		return v
	}
	return def
}

func nextWeekday(from time.Time, wd time.Weekday) time.Time {
	d := (int(wd) - int(from.Weekday()) + 7) % 7
	if d == 0 {
		d = 7
	}
	day := from.AddDate(0, 0, d)
	return time.Date(day.Year(), day.Month(), day.Day(), 23, 59, 0, 0, day.Location())
}
