package labs

import (
	"context"
	"testing"

	"webgpu/internal/minicuda"
)

// BenchmarkRunAllHPP is the exec half of a warm submit without the
// platform around it: each of the 8 HPP references graded against all its
// datasets on a fresh two-GPU device set, as a worker's container does.
// One op is one submit of each lab; the first, untimed, generates and
// parses the datasets.
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
	submitAll := func() {
		for i, l := range hpp {
			for _, o := range RunAllCompiled(context.Background(), l, progs[i], NewDeviceSet(2), 0) {
				if !o.Correct {
					b.Fatalf("%s dataset %d: %s %s", l.ID, o.DatasetID, o.RuntimeError, o.CheckMessage)
				}
			}
		}
	}
	submitAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitAll()
	}
}
