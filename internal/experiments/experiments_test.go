package experiments

import (
	"strings"
	"testing"
)

// Each experiment must run to completion and contain the markers that tie
// it to the paper's reported result. These are the end-to-end smoke tests
// of the whole reproduction.

func TestAllRegistered(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("experiments = %d, want 18", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Name == "" || e.Run == nil || e.Paper == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"36896", "2729", "7.40%", "3.15%", "442",
		"Reproduced", "stochastic"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestFigure1(t *testing.T) {
	out := Figure1()
	for _, want := range []string{"peak:", "trough:", "Wednesday", "daily peak"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure1 missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	out := Table2()
	if got := strings.Count(out, "PASS"); got != 15 {
		t.Fatalf("Table2 has %d PASS rows, want 15:\n%s", got, out)
	}
	for _, want := range []string{"Vector Addition", "Multi-GPU Stencil with MPI",
		"PUMPS", "shared memory tiling"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
	if strings.Contains(out, "0/") {
		t.Errorf("some lab failed datasets:\n%s", out)
	}
}

func TestFigure2(t *testing.T) {
	out := Figure2()
	if strings.Contains(out, "ERROR") {
		t.Fatalf("Figure2 errored:\n%s", out)
	}
	if !strings.Contains(out, "correct results relayed:    16/16") {
		t.Errorf("Figure2 lost jobs:\n%s", out)
	}
}

func TestFigure3(t *testing.T) {
	out := Figure3()
	if strings.Contains(out, "MISSING") {
		t.Errorf("Figure3 missing UI elements:\n%s", out)
	}
}

func TestFigure4(t *testing.T) {
	out := Figure4()
	if !strings.Contains(out, "3 revisions retained") {
		t.Errorf("Figure4:\n%s", out)
	}
}

func TestFigure5(t *testing.T) {
	out := Figure5()
	for _, want := range []string{"ada@example.edu", "bob@example.edu", "attempts"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure5 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure6(t *testing.T) {
	out := Figure6()
	if strings.Contains(out, "ERROR") {
		t.Fatalf("Figure6 errored:\n%s", out)
	}
	for _, want := range []string{"16/16", "broker: published=", "MPI job still queued: 1",
		"completed 1 job(s); backlog now 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure6 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure7(t *testing.T) {
	out := Figure7()
	if strings.Contains(out, "ERROR") {
		t.Fatalf("Figure7 errored:\n%s", out)
	}
	if !strings.Contains(out, "0 allocations leaked") {
		t.Errorf("Figure7 leak check:\n%s", out)
	}
}

func TestGPURatio(t *testing.T) {
	out := GPURatio()
	if !strings.Contains(out, "14.0") { // 112/8 students per GPU row
		t.Errorf("GPURatio missing the 8-GPU row:\n%s", out)
	}
}

func TestProvisioning(t *testing.T) {
	out := Provisioning()
	for _, want := range []string{"static", "scheduled", "reactive", "hybrid", "hpc-cluster"} {
		if !strings.Contains(out, want) {
			t.Errorf("Provisioning missing %q", want)
		}
	}
}

func TestDispatch(t *testing.T) {
	out := Dispatch()
	for _, want := range []string{"attempt 2", "completed correctly after redelivery: true",
		"dispatch error"} {
		if !strings.Contains(out, want) {
			t.Errorf("Dispatch missing %q:\n%s", want, out)
		}
	}
}

func TestPeerReviewExperiment(t *testing.T) {
	out := PeerReview()
	if !strings.Contains(out, "starvation") {
		t.Errorf("PeerReview:\n%s", out)
	}
}

func TestSecurityExperiment(t *testing.T) {
	out := Security()
	for _, want := range []string{"false positives: raw=2 preprocessed=0", "REJECTED"} {
		if !strings.Contains(out, want) {
			t.Errorf("Security missing %q:\n%s", want, out)
		}
	}
}

func TestTagsExperiment(t *testing.T) {
	out := Tags()
	if !strings.Contains(out, "saves") {
		t.Errorf("Tags:\n%s", out)
	}
}

func TestHintsExperiment(t *testing.T) {
	out := Hints()
	for _, want := range []string{"missing bounds check", "Out-of-bounds", "Barrier divergence",
		"__syncthreads()", "time limit", "no shared-memory tiling"} {
		if !strings.Contains(out, want) {
			t.Errorf("Hints missing %q:\n%s", want, out)
		}
	}
}

func TestLimitsExperiment(t *testing.T) {
	out := Limits()
	for _, want := range []string{"6 admitted, 54 rejected", "time limit"} {
		if !strings.Contains(out, want) {
			t.Errorf("Limits missing %q:\n%s", want, out)
		}
	}
}
