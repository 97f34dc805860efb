package wb

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Timer categories, mirroring libwb's wbTime tags; the harnesses time
// copies and kernels.
const (
	TimeCopy    = "Copy"
	TimeCompute = "Compute"
)

// Log levels, mirroring wbLog; the harnesses log at these two.
const (
	LevelTrace = "TRACE"
	LevelInfo  = "INFO"
)

// LogEvent is one wbLog line.
type LogEvent struct {
	Level   string
	Message string
}

// TimerSpan is one wbTime span: a copy or kernel time of the simulated
// device, never a wall-clock reading, so lab output is deterministic.
type TimerSpan struct {
	Category string
	Message  string
	Elapsed  time.Duration
}

// Trace collects the wbLog/wbTime output of one lab run; it is returned to
// the student alongside the correctness result. Safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	logs  []LogEvent
	spans []TimerSpan
}

// NewTrace creates an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Logf records a log line at the given level.
func (t *Trace) Logf(level, format string, args ...interface{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.logs = append(t.logs, LogEvent{Level: level, Message: fmt.Sprintf(format, args...)})
}

// RecordSpan records an externally-measured span, e.g. the simulated GPU
// time of a kernel launch.
func (t *Trace) RecordSpan(category, message string, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, TimerSpan{Category: category, Message: message, Elapsed: elapsed})
}

// String renders the trace the way lab output is shown in the Attempts
// view.
func (t *Trace) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sb strings.Builder
	for _, l := range t.logs {
		fmt.Fprintf(&sb, "[%s] %s\n", l.Level, l.Message)
	}
	for _, s := range t.spans {
		fmt.Fprintf(&sb, "[TIME] %s: %v (%s)\n", s.Category, s.Elapsed, s.Message)
	}
	return sb.String()
}
