// LMS integration: the WebGPU 2.0 front-end story (§VI-A) — an
// instructor embeds a lab in an OpenEdx course unit as a programming
// XBlock; a student opens it and arrives at WebGPU through a signed
// launch; the submission is graded on the simulated GPU workers; and the
// normalized score is passed back to the LMS gradebook.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"webgpu/examples/lms_integration/openedx"
	"webgpu/internal/grader"
	"webgpu/internal/labs"
)

func main() {
	secret := []byte("course-v1:UIUC+ECE408+2015_Spring shared secret")
	lms := openedx.NewConnector(secret)

	// 1. The instructor authors the course unit: a programming XBlock
	//    referencing a catalog lab, with a deadline and grade weight.
	deadline := time.Now().AddDate(0, 0, 7)
	xblock, err := openedx.NewXBlock("tiled-matmul", 0.15, deadline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("course unit XBlock:\n  %s\n\n", xblock.Marshal())

	// 2. A student opens the unit; the LMS sends WebGPU a signed launch.
	launch := lms.NewLaunch("lms-anon-8842", "student@university.edu",
		"A. Student", xblock.LabID, time.Now())
	fmt.Printf("signed launch for %s -> lab %q\n", launch.UserID, launch.LabID)

	// 3. WebGPU verifies the signature and freshness before provisioning a
	//    session — a forged or stale launch is rejected.
	if err := launch.Verify(secret, time.Now()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("launch signature verified")
	forged := *launch
	forged.UserID = "someone-else"
	fmt.Printf("forged launch rejected: %v\n\n", forged.Verify(secret, time.Now()) != nil)

	// 4. The student works the lab; on submit, every dataset runs and the
	//    rubric is applied (here: the reference solution).
	l := labs.ByID(launch.LabID)
	outcomes := labs.RunAll(context.Background(), l, l.Reference, labs.NewDeviceSet(1), 0)
	grade := grader.Score(l, l.Reference, outcomes, len(l.Questions))
	grade.UserID = launch.UserID
	fmt.Printf("graded: %d/%d points across %d datasets\n",
		grade.Total, grade.Max, len(outcomes))

	// 5. Grade passback: the LMS gradebook receives the normalized score
	//    under the launch's result id.
	book := openedx.NewGradebook(lms)
	if err := book.Record(grade); err != nil {
		log.Fatal(err)
	}
	score, _ := lms.Score(launch.ResultID)
	fmt.Printf("LMS gradebook %s = %.2f (weight %.2f of the unit)\n",
		launch.ResultID, score, xblock.Weight)
}
