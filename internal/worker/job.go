// Package worker implements WebGPU's GPU worker nodes (§VI-B): worker
// nodes poll a message broker for jobs matching their capabilities and
// run each job in a Docker-like container drawn from a pool mapped onto
// the node's GPUs. A Node is the job pipeline itself — blacklist scan,
// compile, run, check — and a Driver feeds it from the broker.
package worker

import (
	"encoding/json"
	"time"

	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/trace"
)

// Analysis policies for Job.AnalysisPolicy. The zero value behaves like
// AnalysisWarn, so existing jobs (and serialized jobs from older web
// tiers) grade exactly as before.
const (
	AnalysisWarn     = "warn"      // attach diagnostics, never block (default)
	AnalysisFailFast = "fail-fast" // provable (error-severity) bugs block execution
	AnalysisOff      = "off"       // skip static analysis entirely
)

// Dataset sentinels for Job.DatasetID.
const (
	DatasetAll         = -1 // run every dataset (final submission grading)
	DatasetCompileOnly = -2 // compile only (the editor's Compile button)
)

// ValidAnalysisPolicy reports whether p names a known analysis policy
// ("" counts as the warn default).
func ValidAnalysisPolicy(p string) bool {
	switch p {
	case "", AnalysisWarn, AnalysisFailFast, AnalysisOff:
		return true
	}
	return false
}

// Job is one unit of work: compile and/or run a student submission.
type Job struct {
	ID           string   `json:"id"`
	LabID        string   `json:"lab_id"`
	UserID       string   `json:"user_id"`
	Source       string   `json:"source"`
	DatasetID    int      `json:"dataset_id"`
	Requirements []string `json:"requirements,omitempty"` // the lab's; the tags of its v2 broker message

	// TraceID correlates the job with the web tier's end-to-end trace.
	TraceID string `json:"trace_id,omitempty"`

	// AnalysisPolicy selects what the worker does with kernelcheck
	// findings: AnalysisWarn (or "") attaches them to the result,
	// AnalysisFailFast additionally blocks execution on error-severity
	// diagnostics, AnalysisOff skips the analyzer. Instructors set this
	// per lab; the web tier stamps it onto each job.
	AnalysisPolicy string `json:"analysis_policy,omitempty"`
}

// Result is what a worker sends back to the web tier.
type Result struct {
	JobID        string          `json:"job_id"`
	WorkerID     string          `json:"worker_id"`
	Image        string          `json:"image,omitempty"`
	Outcomes     []*labs.Outcome `json:"outcomes,omitempty"`
	Rejected     bool            `json:"rejected,omitempty"` // failed the security scan
	Canceled     bool            `json:"canceled,omitempty"` // the job's context expired mid-pipeline
	Error        string          `json:"error,omitempty"`
	QueueWait    time.Duration   `json:"queue_wait,omitempty"`
	ExecDuration time.Duration   `json:"exec_duration,omitempty"`
	CompletedAt  time.Time       `json:"completed_at"`

	// Attempt is the broker delivery attempt that produced this result
	// (1-based; 0 when the caller ran the node directly). A redelivered
	// job publishes a second result with a higher attempt — consumers
	// accept only the first result per job ID and use the attempt to
	// label the duplicates they drop.
	Attempt int `json:"attempt,omitempty"`

	// Diagnostics carries kernelcheck's static-analysis findings for the
	// submission, computed once per distinct source via the program
	// cache. AnalysisBlocked marks a fail-fast job whose execution was
	// skipped because the analyzer proved an error-severity bug.
	Diagnostics     []kernelcheck.Diagnostic `json:"diagnostics,omitempty"`
	AnalysisBlocked bool                     `json:"analysis_blocked,omitempty"`

	// Transient marks an infrastructure failure (worker crash, injected
	// fault) rather than a verdict on the submission: the job is safe to
	// retry. The driver nacks transient results instead of publishing
	// them.
	Transient bool `json:"transient,omitempty"`

	// TraceID echoes Job.TraceID; Spans carries the worker-side spans
	// back across a process boundary (the v2 result topic) so the web
	// tier can merge them into the canonical trace. A caller that runs
	// the node in process gets the spans written straight into the
	// context's trace, and Spans stays empty.
	TraceID string       `json:"trace_id,omitempty"`
	Spans   []trace.Span `json:"spans,omitempty"`
}

// Correct reports whether every outcome passed.
func (r *Result) Correct() bool {
	if r.Error != "" || r.Rejected || len(r.Outcomes) == 0 {
		return false
	}
	for _, o := range r.Outcomes {
		if !o.Correct {
			return false
		}
	}
	return true
}

// EncodeJob serializes a job for the broker.
func EncodeJob(j *Job) []byte {
	b, _ := json.Marshal(j)
	return b
}

// DecodeJob deserializes a broker payload.
func DecodeJob(b []byte) (*Job, error) {
	var j Job
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// EncodeResult serializes a result for the broker.
func EncodeResult(r *Result) []byte {
	b, _ := json.Marshal(r)
	return b
}

// DecodeResult deserializes a result payload.
func DecodeResult(b []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
