// Package peerreview implements the peer-review workflow of §IV-D: each
// student is randomly assigned a number of other students' lab
// submissions to review, with a slice of the lab grade awarded for
// completing reviews (not for their content, which WebGPU cannot judge).
// The package also models the failure mode the paper reports: with heavy
// early drop-out, random assignment pairs active students with inactive
// reviewers, so "many students were offering reviews without receiving
// them" — which forced the weight from 10% to 5% and then removal.
package peerreview

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Errors.
var (
	ErrTooFewStudents = errors.New("peerreview: not enough students to assign reviews")
	ErrNotAssigned    = errors.New("peerreview: review was not assigned")
)

// Assignment pairs a reviewer with the author whose submission they must
// review.
type Assignment struct {
	LabID    string
	Reviewer string
	Author   string
	Done     bool
}

// AssignRandom assigns each student perStudent other students' labs,
// uniformly at random without self-review and without duplicate
// (reviewer, author) pairs. This is the paper's scheme ("each student was
// assigned three other random students' labs").
func AssignRandom(labID string, students []string, perStudent int, rng *rand.Rand) ([]Assignment, error) {
	if perStudent <= 0 {
		return nil, nil
	}
	if len(students) <= perStudent {
		return nil, fmt.Errorf("%w: %d students for %d reviews each",
			ErrTooFewStudents, len(students), perStudent)
	}
	var out []Assignment
	for _, reviewer := range students {
		seen := map[string]bool{reviewer: true}
		for len(seen)-1 < perStudent {
			author := students[rng.Intn(len(students))]
			if seen[author] {
				continue
			}
			seen[author] = true
			out = append(out, Assignment{LabID: labID, Reviewer: reviewer, Author: author})
		}
	}
	return out, nil
}

// Stats summarizes review coverage for a population where only some
// students are still active (§IV-D's starvation analysis).
type Stats struct {
	Students          int
	Active            int
	AssignmentsTotal  int
	ReviewsByActive   int     // reviews whose reviewer is active (these get done)
	ActiveGettingNone int     // active students who receive no review from an active reviewer
	StarvationRate    float64 // ActiveGettingNone / Active
}

// Starvation computes, given the assignment set and the set of
// still-active students, how many active students will never receive a
// review: their assigned reviewers have all dropped the course.
func Starvation(assignments []Assignment, active map[string]bool) Stats {
	s := Stats{AssignmentsTotal: len(assignments)}
	students := map[string]bool{}
	received := map[string]int{}
	for _, a := range assignments {
		students[a.Reviewer] = true
		students[a.Author] = true
		if active[a.Reviewer] {
			s.ReviewsByActive++
			received[a.Author]++
		}
	}
	s.Students = len(students)
	for st := range students {
		if !active[st] {
			continue
		}
		s.Active++
		if received[st] == 0 {
			s.ActiveGettingNone++
		}
	}
	if s.Active > 0 {
		s.StarvationRate = float64(s.ActiveGettingNone) / float64(s.Active)
	}
	return s
}

// Store tracks assignments and completions for a lab offering.
type Store struct {
	mu          sync.Mutex
	assignments map[string][]*Assignment // reviewer -> assignments
	byPair      map[string]*Assignment
	weight      float64 // fraction of the lab grade awarded for completion; fixed at NewStore
}

// NewStore creates a store with the given grade weight (0.10 in the
// second offering, 0.05 in the third, 0 once phased out).
func NewStore(weight float64) *Store {
	return &Store{
		assignments: map[string][]*Assignment{},
		byPair:      map[string]*Assignment{},
		weight:      weight,
	}
}

// Weight returns the configured grade weight.
func (s *Store) Weight() float64 { return s.weight }

// Load registers assignments.
func (s *Store) Load(as []Assignment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range as {
		a := as[i]
		cp := &a
		s.assignments[a.Reviewer] = append(s.assignments[a.Reviewer], cp)
		s.byPair[a.LabID+"\x00"+a.Reviewer+"\x00"+a.Author] = cp
	}
}

// For returns a reviewer's assignments.
func (s *Store) For(reviewer string) []Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Assignment, 0, len(s.assignments[reviewer]))
	for _, a := range s.assignments[reviewer] {
		out = append(out, *a)
	}
	return out
}

// Complete marks a review done; points are for completion only (§IV-D:
// "points were assigned for completing the peer review and did not impact
// student's grade" accuracy-wise).
func (s *Store) Complete(labID, reviewer, author string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.byPair[labID+"\x00"+reviewer+"\x00"+author]
	if !ok {
		return fmt.Errorf("%w: %s reviewing %s", ErrNotAssigned, reviewer, author)
	}
	a.Done = true
	return nil
}

// CompletionFraction reports the share of a reviewer's assignments done.
func (s *Store) CompletionFraction(reviewer string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	as := s.assignments[reviewer]
	if len(as) == 0 {
		return 0
	}
	done := 0
	for _, a := range as {
		if a.Done {
			done++
		}
	}
	return float64(done) / float64(len(as))
}

// GradeBonus returns the grade fraction earned by a reviewer: weight ×
// completion fraction.
func (s *Store) GradeBonus(reviewer string) float64 {
	return s.Weight() * s.CompletionFraction(reviewer)
}
