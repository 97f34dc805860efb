// Package grader implements WebGPU's automatic grading (§IV-F): when a
// student submits, the system runs every dataset, applies the lab's
// rubric — points for compilation, per-dataset correctness, required
// keywords, and answered short-answer questions — records the grade, and
// writes it back to the course gradebook (Coursera in the paper).
// Instructors can override grades and leave comments through the
// instructor tools.
package grader

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
)

// ErrNoSuchGrade is returned when an override targets a missing grade.
var ErrNoSuchGrade = errors.New("grader: no such grade")

// Grade is the rubric breakdown of one submission.
type Grade struct {
	UserID       string    `json:"user_id,omitempty"`
	LabID        string    `json:"lab_id,omitempty"`
	SubmissionID string    `json:"submission_id,omitempty"`
	Compile      int       `json:"compile_points"`
	Datasets     int       `json:"dataset_points"`
	Keywords     int       `json:"keyword_points"`
	Questions    int       `json:"question_points"`
	Total        int       `json:"total"`
	Max          int       `json:"max"`
	DatasetPass  []bool    `json:"dataset_pass"`
	KeywordsHit  []string  `json:"keywords_hit"`
	Overridden   bool      `json:"overridden,omitempty"`
	OverrideBy   string    `json:"override_by,omitempty"`
	Comment      string    `json:"comment,omitempty"`
	GradedAt     time.Time `json:"graded_at"`

	// Feedback is student-facing commentary attached alongside the score
	// — today the static-analyzer findings for the submitted kernel.
	Feedback []string `json:"feedback,omitempty"`
}

// Score applies a lab's rubric to the outcomes of a full submission run.
// questionsAnswered counts the short-answer questions the student filled
// in (they are not auto-graded — §IV-B: "There is no system for automatic
// grading of questions" — so completion earns the points). GradedAt is
// left zero: the caller stamps it from the clock its submission is dated
// by.
func Score(l *labs.Lab, source string, outcomes []*labs.Outcome, questionsAnswered int) *Grade {
	g := &Grade{LabID: l.ID, Max: l.MaxPoints()}
	compiled := len(outcomes) > 0
	for _, o := range outcomes {
		if !o.Compiled {
			compiled = false
		}
	}
	if compiled {
		g.Compile = l.Rubric.CompilePoints
	}
	g.DatasetPass = make([]bool, len(outcomes))
	for i, o := range outcomes {
		if o.Correct {
			g.DatasetPass[i] = true
			g.Datasets += l.Rubric.DatasetPoints
		}
	}
	g.KeywordsHit = labs.KeywordsPresent(l, source)
	g.Keywords = len(g.KeywordsHit) * l.Rubric.KeywordPoints
	if questionsAnswered > len(l.Questions) {
		questionsAnswered = len(l.Questions)
	}
	if questionsAnswered < 0 {
		questionsAnswered = 0
	}
	g.Questions = questionsAnswered * l.Rubric.QuestionPoints
	g.Total = g.Compile + g.Datasets + g.Keywords + g.Questions
	return g
}

// AttachDiagnostics appends the static analyzer's findings to the
// grade's student-facing feedback, most severe first (the order Analyze
// already guarantees within a position). Grading points are unaffected:
// the analyzer informs, the rubric decides.
func AttachDiagnostics(g *Grade, diags []kernelcheck.Diagnostic) {
	for _, d := range diags {
		g.Feedback = append(g.Feedback, d.String())
	}
}

// Override replaces a grade's total with an instructor-assigned value and
// records who did it (§IV-F: "Instructors are provided an interface to
// override a grade").
func Override(g *Grade, instructor string, total int, comment string) {
	g.Total = total
	g.Overridden = true
	g.OverrideBy = instructor
	g.Comment = comment
}

// Gradebook is where final grades are recorded; the paper's deployment
// wrote them back to Coursera.
type Gradebook interface {
	Record(g *Grade) error
	Lookup(userID, labID string) (*Grade, error)
}

// CourseraBook is the simulated external gradebook connector: an ordered,
// last-write-wins record store with an export format matching what course
// platforms ingest.
type CourseraBook struct {
	mu      sync.Mutex
	grades  map[string]*Grade // userID+"\x00"+labID
	writes  int64
	courses string
}

// NewCourseraBook creates an empty connector for the named course.
func NewCourseraBook(course string) *CourseraBook {
	return &CourseraBook{grades: map[string]*Grade{}, courses: course}
}

// Record stores (or replaces) a grade.
func (b *CourseraBook) Record(g *Grade) error {
	if g.UserID == "" || g.LabID == "" {
		return fmt.Errorf("grader: grade missing user or lab id")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cp := *g
	b.grades[g.UserID+"\x00"+g.LabID] = &cp
	b.writes++
	return nil
}

// Lookup fetches a recorded grade.
func (b *CourseraBook) Lookup(userID, labID string) (*Grade, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.grades[userID+"\x00"+labID]
	if !ok {
		return nil, ErrNoSuchGrade
	}
	cp := *g
	return &cp, nil
}

// Writes reports how many gradebook writes occurred.
func (b *CourseraBook) Writes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.writes
}

// Export renders "user,lab,total,max" CSV lines sorted by key, the bulk
// format course platforms import.
func (b *CourseraBook) Export() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.grades))
	for k := range b.grades {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := "user,lab,total,max\n"
	for _, k := range keys {
		g := b.grades[k]
		out += fmt.Sprintf("%s,%s,%d,%d\n", g.UserID, g.LabID, g.Total, g.Max)
	}
	return out
}

var _ Gradebook = (*CourseraBook)(nil)
