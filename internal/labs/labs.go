// Package labs defines the WebGPU lab catalog: the fifteen labs of the
// paper's Table II, each with its markdown description, solution skeleton,
// instructor reference solution, deterministic dataset generators, grading
// rubric, course assignments, and the host-side harness that allocates
// device memory, launches the student's kernels, and checks the output
// against the expected dataset (§IV-B, §IV-E).
package labs

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Course identifies a course offering that uses WebGPU (Table II).
type Course string

// Courses from the paper: the Coursera MOOC, the UIUC undergraduate and
// graduate courses, and the UPC Barcelona summer school.
const (
	CourseHPP    Course = "HPP"   // Heterogeneous Parallel Programming (Coursera)
	CourseECE408 Course = "408"   // UIUC ECE 408
	CourseECE598 Course = "598"   // UIUC ECE 598 HK
	CoursePUMPS  Course = "PUMPS" // UPC Barcelona summer school
)

// AllCourses lists the four course columns of Table II, in paper order.
var AllCourses = []Course{CourseHPP, CourseECE408, CourseECE598, CoursePUMPS}

// Worker requirement tags (§VI-A): a lab tagged "mpi" or "multi-gpu" may
// only be dispatched to worker nodes advertising that capability.
const (
	ReqOpenCL   = "opencl"
	ReqMPI      = "mpi"
	ReqMultiGPU = "multi-gpu"
)

// Rubric describes how points are awarded (§IV-E: "Points are arbitrarily
// divided among datasets, short-answer questions, presence of keywords,
// and successful compilation").
type Rubric struct {
	CompilePoints  int      // awarded when the submission compiles
	DatasetPoints  int      // per passing dataset
	KeywordPoints  int      // per required keyword present in the source
	Keywords       []string // e.g. __shared__ for the tiled labs
	QuestionPoints int      // per answered short-answer question
}

// MaxPoints computes the rubric total for a lab.
func (r Rubric) MaxPoints(numDatasets, numQuestions int) int {
	return r.CompilePoints + r.DatasetPoints*numDatasets +
		r.KeywordPoints*len(r.Keywords) + r.QuestionPoints*numQuestions
}

// RunContext carries everything a lab harness needs for one run against
// one dataset.
type RunContext struct {
	Devices  []*gpusim.Device
	Program  *minicuda.Program
	Dataset  *wb.Dataset
	Trace    *wb.Trace
	MaxSteps int64

	// files is where the dataset's decoded files are kept between runs
	// (see parsed); nil for a context built outside RunCompiled.
	files *parsedFiles
}

// Dev returns the primary GPU.
func (rc *RunContext) Dev() *gpusim.Device { return rc.Devices[0] }

// Opts builds launch options with the context's step budget.
func (rc *RunContext) Opts(grid, block gpusim.Dim3) minicuda.LaunchOpts {
	return minicuda.LaunchOpts{Grid: grid, Block: block, MaxSteps: rc.MaxSteps}
}

// Harness is the host-side driver of a lab: it stands in for the main()
// that libwb-based labs run around the student's kernels. It takes its
// host steps through rc's methods (harness.go), the first of which to
// fail ends the run, and returns the check of what it read back.
type Harness func(rc *RunContext) wb.CheckResult

// Lab is one catalog entry.
type Lab struct {
	ID           string
	Number       int
	Name         string
	Summary      string // the Table II description column
	Description  string // full markdown shown in the Description view
	Dialect      minicuda.Dialect
	Skeleton     string
	Reference    string // instructor solution, used for dataset generation checks
	Questions    []string
	Courses      []Course
	Requirements []string // worker capability tags
	NumDatasets  int
	NumGPUs      int // simulated GPUs the harness needs (Multi-GPU lab)
	Rubric       Rubric
	Generate     func(datasetID int) (*wb.Dataset, error)
	Harness      Harness

	// Dataset cache: generators are deterministic (seeded by
	// rng(labID, datasetID)) and datasets are immutable byte blobs the
	// harnesses only parse, so each instructor dataset is materialized
	// once per process and shared by every subsequent run; what a harness
	// parses out of it is kept beside it (dsEntry.files).
	dsMu   sync.Mutex
	dsOnce map[int]*dsEntry
}

type dsEntry struct {
	ds    *wb.Dataset
	err   error
	files parsedFiles
}

// Dataset returns the lab's dataset with the given ID, generating it on
// first use and serving the cached copy afterwards.
func (l *Lab) Dataset(id int) (*wb.Dataset, error) {
	if id < 0 || id >= l.NumDatasets {
		return nil, fmt.Errorf("labs: dataset %d out of range [0,%d)", id, l.NumDatasets)
	}
	e := l.dataset(id)
	return e.ds, e.err
}

// dataset returns the cache entry of an in-range dataset ID.
func (l *Lab) dataset(id int) *dsEntry {
	l.dsMu.Lock()
	defer l.dsMu.Unlock()
	if l.dsOnce == nil {
		l.dsOnce = make(map[int]*dsEntry, l.NumDatasets)
	}
	e, ok := l.dsOnce[id]
	if !ok {
		ds, err := l.Generate(id)
		e = &dsEntry{ds: ds, err: err}
		l.dsOnce[id] = e
	}
	return e
}

// UsedBy reports whether the lab is part of the given course (Table II).
func (l *Lab) UsedBy(c Course) bool {
	for _, x := range l.Courses {
		if x == c {
			return true
		}
	}
	return false
}

// MaxPoints returns the lab's rubric total.
func (l *Lab) MaxPoints() int { return l.Rubric.MaxPoints(l.NumDatasets, len(l.Questions)) }

// rng returns a deterministic random source for a lab/dataset pair so
// generated datasets are reproducible across worker nodes.
func rng(labID string, datasetID int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(labID))
	return rand.New(rand.NewSource(int64(h.Sum64()) ^ int64(datasetID)*int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF)))
}

var registry = map[string]*Lab{}

func register(l *Lab) *Lab {
	if _, dup := registry[l.ID]; dup {
		panic(fmt.Sprintf("labs: duplicate lab id %q", l.ID))
	}
	registry[l.ID] = l
	return l
}

// Register adds an instructor-authored lab to the catalog (§IV-E). It
// validates the definition the way the deployment scripts did before a
// lab went live: the skeleton must compile, the reference must exist, and
// every dataset generator must produce data.
func Register(l *Lab) error {
	switch {
	case l.ID == "":
		return fmt.Errorf("labs: lab needs an ID")
	case registry[l.ID] != nil:
		return fmt.Errorf("labs: lab %q already exists", l.ID)
	case l.Name == "" || l.Description == "":
		return fmt.Errorf("labs: lab %q needs a name and description", l.ID)
	case l.Skeleton == "" || l.Reference == "":
		return fmt.Errorf("labs: lab %q needs a skeleton and a reference solution", l.ID)
	case l.NumDatasets <= 0 || l.Generate == nil:
		return fmt.Errorf("labs: lab %q needs datasets", l.ID)
	case l.Harness == nil:
		return fmt.Errorf("labs: lab %q needs a harness", l.ID)
	}
	for i := 0; i < l.NumDatasets; i++ {
		// Validation doubles as cache warm-up: the datasets built here are
		// the ones every future run is served from.
		if _, err := l.Dataset(i); err != nil {
			return fmt.Errorf("labs: lab %q dataset %d: %w", l.ID, i, err)
		}
	}
	if o := CompileOnly(l, l.Skeleton); !o.Compiled {
		return fmt.Errorf("labs: lab %q skeleton does not compile: %s", l.ID, o.CompileError)
	}
	register(l)
	return nil
}

// Unregister removes a lab (used by tests and lab-authoring examples).
func Unregister(id string) { delete(registry, id) }

// ByID returns the lab with the given ID, or nil.
func ByID(id string) *Lab { return registry[id] }

// All returns the catalog ordered by lab number (Table II row order).
func All() []*Lab {
	out := make([]*Lab, 0, len(registry))
	for _, l := range registry {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

// ForCourse returns the labs a course uses, in catalog order.
func ForCourse(c Course) []*Lab {
	var out []*Lab
	for _, l := range All() {
		if l.UsedBy(c) {
			out = append(out, l)
		}
	}
	return out
}

// defaultRubric is the standard split most labs use.
func defaultRubric(keywords ...string) Rubric {
	return Rubric{
		CompilePoints:  10,
		DatasetPoints:  15,
		KeywordPoints:  5,
		Keywords:       keywords,
		QuestionPoints: 5,
	}
}
