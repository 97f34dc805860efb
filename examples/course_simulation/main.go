// Course simulation: replay a full Coursera offering against the
// operational models — the Table I enrollment funnel, the Figure 1 hourly
// activity series with its Wednesday deadline spikes, and the provisioning
// policies the paper discusses, compared with a statically provisioned
// HPC cluster. The reports are the ones EXPERIMENTS.md records.
package main

import (
	"fmt"

	"webgpu/internal/experiments"
)

func main() {
	fmt.Println(experiments.Table1())
	fmt.Println(experiments.Figure1())
	fmt.Println(experiments.Provisioning())
	fmt.Println("the elastic fleet tracks the enrollment decay; the static cluster sized")
	fmt.Println("for week one sits mostly idle from week four on (§II-C).")
}
