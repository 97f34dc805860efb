// Package experiments regenerates every table and figure of the WebGPU
// paper, plus the derived ablations catalogued in DESIGN.md. Each
// experiment returns a report that is a function of the code: counts,
// ratios and model outputs, never a wall-clock reading (timings belong to
// bench/). TestExperiments keeps every report in EXPERIMENTS.md between
// generated markers and fails on a diff. The experiment IDs (T1, F1, ...,
// D8) match DESIGN.md's experiment index.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/workload"
)

// Experiment is one entry of the catalog.
type Experiment struct {
	ID    string
	Name  string
	Run   func() string
	Paper string // what the paper reports, for EXPERIMENTS.md comparison
}

// All returns the experiments in catalog order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: registrations, completions, certificates (2013-2015)", Table1,
			"2013: 36896/2729/7.40%/-, 2014: 33818/1061/3.14%/286, 2015: 35940/1141/3.15%/442"},
		{"figure1", "Figure 1: active students per hour, Feb 8 - Apr 15 2015", Figure1,
			"peak 112 on Wed Feb 18, trough 8 on Apr 9, weekly Wednesday spikes"},
		{"figure2", "Figure 2: v1 architecture end-to-end submission flow", Figure2,
			"web server pushes jobs to workers; results relayed to students"},
		{"table2", "Table II: the 15 labs x 4 courses", Table2,
			"15 labs, courses HPP/408/598/PUMPS"},
		{"figure3", "Figure 3: the Code view", Figure3,
			"editor with skeleton, compilation controls, dataset drop-down"},
		{"figure4", "Figure 4: the History view", Figure4,
			"all code revisions retained with timestamps"},
		{"figure5", "Figure 5: the Roster view", Figure5,
			"per-student attempts, grades, question grades, submission times"},
		{"figure6", "Figure 6: v2 broker architecture", Figure6,
			"workers poll a broker queue; tag-matched dispatch"},
		{"figure7", "Figure 7: v2 worker node container pool", Figure7,
			"driver runs each job in a pooled Docker container mapped to GPUs"},
		{"gpuratio", "D1: latency vs GPU:student ratio", GPURatio,
			"GPUs can be dramatically fewer than concurrent users"},
		{"provisioning", "D2: provisioning policies vs HPC-cluster baseline", Provisioning,
			"static peak provisioning is mostly idle; elastic matches latency at far lower cost"},
		{"dispatch", "D3: push (v1) vs poll (v2) dispatch under worker churn", Dispatch,
			"poll model with leases survives worker loss; push fails jobs"},
		{"peerreview", "D4: peer-review starvation vs retention", PeerReview,
			"high drop rate starves active students of reviews; weight 10%->5%->0"},
		{"security", "D5: blacklist scan modes and overhead", Security,
			"raw scan false-positives on comments; preprocessed scan avoids them"},
		{"tags", "D6: tag-aware dispatch vs max-spec fleet", Tags,
			"no need to provision all workers for the largest lab's requirements"},
		{"limits", "D7: submission rate and execution time limits", Limits,
			"per-lab time limits and submission-rate limits keep the system fair"},
		{"hints", "E1: automated feedback / on-demand hints (§VIII future work)", Hints,
			"future work: 'automated feedback to students and on-demand help/hints'"},
		{"tiling", "P1: tiled vs basic matrix multiply on the cost model", Tiling,
			"not in the paper; the tiling lab teaches that TILE_WIDTH=16 cuts global traffic up to 16x"},
	}
}

// ---- T1: Table I -----------------------------------------------------------------

// Table1 reproduces Table I from the calibrated enrollment funnel, both
// in expectation and by stochastic simulation.
func Table1() string {
	var sb strings.Builder
	sb.WriteString("== Table I: Heterogeneous Parallel Programming on Coursera ==\n\n")
	sb.WriteString("Paper:\n")
	sb.WriteString(workload.FormatTableI(workload.PaperTableI))

	var expected, simulated []workload.YearResult
	rng := rand.New(rand.NewSource(1))
	for _, p := range workload.CalibratedYears() {
		expected = append(expected, p.Expected())
		simulated = append(simulated, p.Simulate(rng))
	}
	sb.WriteString("\nReproduced (calibrated funnel, expectation):\n")
	sb.WriteString(workload.FormatTableI(expected))
	sb.WriteString("\nReproduced (stochastic simulation, seed 1):\n")
	sb.WriteString(workload.FormatTableI(simulated))

	sb.WriteString("\nWeekly active students (2015 funnel):\n")
	for w, n := range expected[2].WeeklyActive {
		fmt.Fprintf(&sb, "  week %d: %6d\n", w+1, n)
	}
	return sb.String()
}

// ---- F1: Figure 1 ----------------------------------------------------------------

// Figure1 regenerates the active-students-per-hour series and renders the
// daily-peak chart with its summary statistics.
func Figure1() string {
	var sb strings.Builder
	sb.WriteString("== Figure 1: active students per hour (Feb 8 - Apr 15, 2015) ==\n\n")
	m := workload.Figure1Model()
	series := m.HourlySeries()
	s := workload.Stats(series)
	fmt.Fprintf(&sb, "hours simulated: %d\n", s.Hours)
	fmt.Fprintf(&sb, "peak:   %3d active at %s (%s)   [paper: 112 on Feb 18, a Wednesday]\n",
		s.Max, s.MaxAt.Format("Jan 2 15:04"), s.MaxAt.Weekday())
	fmt.Fprintf(&sb, "trough: %3d active at %s (%s)   [paper: 8 on Apr 9]\n",
		s.Min, s.MinAt.Format("Jan 2 15:04"), s.MinAt.Weekday())
	sb.WriteString("\nmean active by weekday (deadline Thursday; spike the day before):\n")
	for wd := time.Sunday; wd <= time.Saturday; wd++ {
		bar := strings.Repeat("#", int(s.ByWeekday[wd]/2))
		fmt.Fprintf(&sb, "  %-9s %6.1f %s\n", wd, s.ByWeekday[wd], bar)
	}
	fmt.Fprintf(&sb, "Wednesday mean / Monday mean: %.1fx\n",
		s.ByWeekday[time.Wednesday]/s.ByWeekday[time.Monday])
	sb.WriteString("\ndaily peak active students:\n")
	sb.WriteString(workload.RenderASCII(series, 50))
	return sb.String()
}

// ---- T2: Table II ----------------------------------------------------------------

// Table2 runs every lab's reference solution through a worker node and
// prints the lab x course matrix with the verification status.
func Table2() string {
	var sb strings.Builder
	sb.WriteString("== Table II: WebGPU-hosted labs and the courses they are used for ==\n\n")
	fmt.Fprintf(&sb, "%-28s %-52s %-4s %-4s %-4s %-6s %s\n",
		"Lab", "Description", "HPP", "408", "598", "PUMPS", "Reference")
	for _, l := range labs.All() {
		mark := func(c labs.Course) string {
			if l.UsedBy(c) {
				return "x"
			}
			return ""
		}
		status := verifyLab(l)
		fmt.Fprintf(&sb, "%-28s %-52s %-4s %-4s %-4s %-6s %s\n",
			l.Name, l.Summary, mark(labs.CourseHPP), mark(labs.CourseECE408),
			mark(labs.CourseECE598), mark(labs.CoursePUMPS), status)
	}
	sb.WriteString("\nlabs per course:\n")
	sb.WriteString(sortedCourses())
	sb.WriteString("\n")
	return sb.String()
}

// verifyLab runs the lab's reference on every dataset. Simulated time is
// left out: input-binning claims output slots with global atomics from
// concurrent blocks, so its cycle count still depends on the interleaving.
func verifyLab(l *labs.Lab) string {
	n := l.NumGPUs
	if n == 0 {
		n = 1
	}
	devs := labs.NewDeviceSet(n)
	pass := 0
	for ds := 0; ds < l.NumDatasets; ds++ {
		if labs.Run(context.Background(), l, l.Reference, ds, devs, 0).Correct {
			pass++
		}
	}
	return fmt.Sprintf("PASS %d/%d datasets", pass, l.NumDatasets)
}

// sortedCourses lists courses with their lab counts, a Table II footer.
func sortedCourses() string {
	var lines []string
	for _, c := range labs.AllCourses {
		lines = append(lines, fmt.Sprintf("  %-6s %2d labs", c, len(labs.ForCourse(c))))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
