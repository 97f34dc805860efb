package peerreview

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func students(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%03d", i)
	}
	return out
}

func TestAssignRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ss := students(50)
	as, err := AssignRandom("lab1", ss, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 50*3 {
		t.Fatalf("assignments = %d, want 150", len(as))
	}
	perReviewer := map[string]map[string]bool{}
	for _, a := range as {
		if a.Reviewer == a.Author {
			t.Fatalf("self review: %+v", a)
		}
		if perReviewer[a.Reviewer] == nil {
			perReviewer[a.Reviewer] = map[string]bool{}
		}
		if perReviewer[a.Reviewer][a.Author] {
			t.Fatalf("duplicate pair: %+v", a)
		}
		perReviewer[a.Reviewer][a.Author] = true
	}
	for r, set := range perReviewer {
		if len(set) != 3 {
			t.Errorf("reviewer %s has %d assignments", r, len(set))
		}
	}
}

func TestAssignRandomTooFew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := AssignRandom("lab1", students(3), 3, rng); !errors.Is(err, ErrTooFewStudents) {
		t.Errorf("err = %v", err)
	}
	if as, err := AssignRandom("lab1", students(10), 0, rng); err != nil || as != nil {
		t.Errorf("zero reviews: %v %v", as, err)
	}
}

// The §IV-D phenomenon: with the paper's ~3% completion rate, almost every
// active student's reviewers have dropped out, so active students starve
// for reviews. With high retention, starvation is rare.
func TestStarvationGrowsWithDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ss := students(1000)
	as, err := AssignRandom("lab1", ss, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	starvationAt := func(activeFrac float64) float64 {
		active := map[string]bool{}
		for i, s := range ss {
			if float64(i) < activeFrac*float64(len(ss)) {
				active[s] = true
			}
		}
		// Shuffle-independent: activity is by index, assignment was random.
		return Starvation(as, active).StarvationRate
	}
	low := starvationAt(0.90)  // healthy course
	mid := starvationAt(0.30)  // mid-course
	high := starvationAt(0.05) // MOOC reality (Table I: ~3% complete)
	if !(low < mid && mid < high) {
		t.Fatalf("starvation not monotone in dropout: %.3f %.3f %.3f", low, mid, high)
	}
	if high < 0.5 {
		t.Errorf("at 5%% retention starvation = %.3f, expected severe (>0.5)", high)
	}
	if low > 0.1 {
		t.Errorf("at 90%% retention starvation = %.3f, expected rare (<0.1)", low)
	}
}

func TestStarvationStats(t *testing.T) {
	as := []Assignment{
		{LabID: "l", Reviewer: "a", Author: "b"},
		{LabID: "l", Reviewer: "b", Author: "a"},
		{LabID: "l", Reviewer: "c", Author: "a"}, // c dropped
	}
	active := map[string]bool{"a": true, "b": true}
	s := Starvation(as, active)
	if s.Students != 3 || s.Active != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.ReviewsByActive != 2 {
		t.Errorf("reviews by active = %d", s.ReviewsByActive)
	}
	if s.ActiveGettingNone != 0 {
		t.Errorf("both a and b receive reviews: %+v", s)
	}
}

func TestStoreCompletionAndBonus(t *testing.T) {
	st := NewStore(0.10)
	rng := rand.New(rand.NewSource(3))
	as, _ := AssignRandom("lab1", students(10), 3, rng)
	st.Load(as)
	mine := st.For("s000")
	if len(mine) != 3 {
		t.Fatalf("assignments = %d", len(mine))
	}
	if err := st.Complete("lab1", "s000", mine[0].Author); err != nil {
		t.Fatal(err)
	}
	if err := st.Complete("lab1", "s000", mine[1].Author); err != nil {
		t.Fatal(err)
	}
	if got := st.CompletionFraction("s000"); got < 0.66 || got > 0.67 {
		t.Errorf("completion = %v", got)
	}
	if got := st.GradeBonus("s000"); got < 0.066 || got > 0.067 {
		t.Errorf("bonus = %v", got)
	}
	// Completing an unassigned review fails.
	if err := st.Complete("lab1", "s000", "s000"); !errors.Is(err, ErrNotAssigned) {
		t.Errorf("err = %v", err)
	}
}

// The weight trajectory the paper describes: 10% in offering two, 5%
// after complaints, then phased out. A weight is an offering's, fixed
// when its store is made.
func TestWeightPhaseOut(t *testing.T) {
	for _, w := range []float64{0.10, 0.05} {
		if got := NewStore(w).Weight(); got != w {
			t.Fatalf("Weight() = %v, want %v", got, w)
		}
	}
	st := NewStore(0)
	rng := rand.New(rand.NewSource(3))
	as, _ := AssignRandom("lab1", students(10), 1, rng)
	st.Load(as)
	mine := st.For("s001")
	_ = st.Complete("lab1", "s001", mine[0].Author)
	if st.GradeBonus("s001") != 0 {
		t.Error("phased-out reviews still earn grade")
	}
}

func TestCompletionFractionNoAssignments(t *testing.T) {
	st := NewStore(0.1)
	if st.CompletionFraction("ghost") != 0 {
		t.Error("ghost reviewer has completion")
	}
}
