package macrobench

import (
	"testing"
)

// TestRestartStorm is the durable-store acceptance run: a platform warms
// a store directory with real traffic, restarts against it, and must
// serve the whole working set with zero recompiles at near-warm latency.
// The zero-recompile and latency-bound assertions live inside Run — an
// error here IS the regression.
func TestRestartStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("two full platform boots; skipped in -short")
	}
	for _, seed := range soakSeeds(t) {
		s, ok := ByName("restart-storm", seed)
		if !ok {
			t.Fatal("restart-storm scenario missing from the standard suite")
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%v\nreplay with CHAOS_SEED=%d", err, seed)
		}
		t.Logf("restart-storm: cold p50 %.1fms, pre-restart warm p50 %.1fms, post-restart p50 %.1fms, %d recompiles, %d disk hits",
			res.ColdP50Ms, res.PreRestartP50Ms, res.PostRestartP50Ms, res.Recompiles, res.DiskHits)

		if res.SubmitOK != res.Submissions {
			t.Errorf("submit_ok = %d, want %d (seed %d)", res.SubmitOK, res.Submissions, seed)
		}
		if res.Recompiles != 0 {
			t.Errorf("recompiles = %d after restart, want 0 (seed %d)", res.Recompiles, seed)
		}
		if res.DiskHits != int64(res.Submissions) {
			t.Errorf("disk_hits = %d, want one per source (%d) (seed %d)", res.DiskHits, res.Submissions, seed)
		}
		if res.ColdP50Ms == 0 || res.PostRestartP50Ms == 0 {
			t.Errorf("phase medians missing: cold %.2f post %.2f (seed %d)",
				res.ColdP50Ms, res.PostRestartP50Ms, seed)
		}
	}
}
