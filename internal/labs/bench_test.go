package labs

import (
	"context"
	"testing"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
)

// BenchmarkRunAllHPP is the exec half of a warm submit without the
// platform around it: each of the 8 HPP references graded against all its
// datasets on a fresh two-GPU device set, as a worker's container does.
// One op is one submit of each lab; the first, untimed, generates and
// parses the datasets. It also reports ns/simop, the time per operation
// the launches simulated (the ops bench/ sums as gpusim.sim_ops), which
// is the VM's cost net of how much work the labs ask of it.
func BenchmarkRunAllHPP(b *testing.B) {
	hpp := ForCourse(CourseHPP)
	progs := make([]*minicuda.Program, len(hpp))
	for i, l := range hpp {
		p, err := minicuda.Compile(l.Reference, l.Dialect)
		if err != nil {
			b.Fatalf("%s: %v", l.ID, err)
		}
		progs[i] = p
	}
	var simOps int64
	submitAll := func() {
		for i, l := range hpp {
			devs := NewDeviceSet(2)
			for _, o := range RunAllCompiled(context.Background(), l, progs[i], devs, 0) {
				if !o.Correct {
					b.Fatalf("%s dataset %d: %s %s", l.ID, o.DatasetID, o.RuntimeError, o.CheckMessage)
				}
			}
			for _, d := range devs {
				for _, s := range d.Launches() {
					simOps += launchOps(s)
				}
			}
		}
	}
	submitAll()
	simOps = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitAll()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simOps), "ns/simop")
}

// launchOps is the work a launch simulated, in operations.
func launchOps(s *gpusim.LaunchStats) int64 {
	return s.ALUOps + s.SpecialOps + s.Branches + s.GlobalLoads + s.GlobalStores +
		s.SharedOps + s.Atomics + s.ConstLoads
}
