package platform

import (
	"fmt"
	"strings"

	"webgpu/internal/castore"
	"webgpu/internal/overload"
	"webgpu/internal/progcache"
)

// Status is the administrator-dashboard snapshot of §VI-A ("An
// information dashboard is available to the system administrators to
// track the system status").
type Status struct {
	Workers       int
	DBSeq         uint64
	BrokerBacklog int // jobs waiting
	BrokerStats   string
	GradebookRows int64
	ProgCache     progcache.Stats // compiled-program cache effectiveness

	// Artifacts is the durable store's view; HasArtifacts distinguishes a
	// memory-only deployment from a store with all-zero counters.
	Artifacts    castore.Stats
	HasArtifacts bool

	// Pressure and SLO are the overload-survival view: system pressure
	// in [0, ∞) and the per-class admission/shed/burn snapshot.
	Pressure float64
	SLO      []overload.SLOStatus
}

// Status captures the current system state.
func (p *Platform) Status() Status {
	s := Status{
		Workers:       p.Workers(),
		DBSeq:         p.DB.Seq(),
		GradebookRows: p.Gradebook.Writes(),
		ProgCache:     p.progs.Stats(),
		Pressure:      p.overload.Pressure(),
		SLO:           p.overload.SLOStatuses(),
		BrokerBacklog: p.Broker.Backlog("jobs"),
		BrokerStats:   fmt.Sprintf("%+v", p.Broker.Stats()),
	}
	if p.store != nil {
		s.Artifacts = p.store.Stats()
		s.HasArtifacts = true
	}
	return s
}

// Render formats the snapshot as the dashboard text view.
func (s Status) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workers:        %d\n", s.Workers)
	fmt.Fprintf(&sb, "db commits:     %d\n", s.DBSeq)
	fmt.Fprintf(&sb, "gradebook rows: %d\n", s.GradebookRows)
	fmt.Fprintf(&sb, "prog cache:     %d hits, %d misses, %d coalesced, %d evicted, %d cached\n",
		s.ProgCache.Hits, s.ProgCache.Misses, s.ProgCache.Coalesced, s.ProgCache.Evictions, s.ProgCache.Size)
	fmt.Fprintf(&sb, "prog artifacts: %d diagnostics hits, %d bytecode bytes cached\n",
		s.ProgCache.HitsDiagnostics, s.ProgCache.BytecodeBytes)
	fmt.Fprintf(&sb, "kernelcheck:    %d analyses, %d diagnostic hits\n",
		s.ProgCache.Analyzes, s.ProgCache.HitsDiagnostics)
	if s.HasArtifacts {
		fmt.Fprintf(&sb, "artifact store: %d objects (%d B), %d hits, %d misses, %d disk-warm programs, %d corrupt quarantined, %d gc-removed\n",
			s.Artifacts.Objects, s.Artifacts.DiskBytes, s.Artifacts.Hits, s.Artifacts.Misses,
			s.ProgCache.DiskHits, s.Artifacts.Quarantined, s.Artifacts.GCRemoved)
	} else {
		fmt.Fprintf(&sb, "artifact store: absent (memory-only cache)\n")
	}
	fmt.Fprintf(&sb, "pressure:       %.2f\n", s.Pressure)
	for _, slo := range s.SLO {
		fmt.Fprintf(&sb, "slo %-11s %.0f admitted, %.0f shed, %d inflight, burn %.2f fast / %.2f slow (target %.3f)\n",
			slo.Name+":", slo.Admitted, slo.Shed, slo.Inflight, slo.FastBurn, slo.SlowBurn, slo.Target)
	}
	fmt.Fprintf(&sb, "broker backlog: %d\n", s.BrokerBacklog)
	fmt.Fprintf(&sb, "broker stats:   %s\n", s.BrokerStats)
	return sb.String()
}
