package clock

import (
	"testing"
	"time"
)

// TestManualTimers: Advance fires exactly the timers due by the new
// reading, each with its deadline; a stopped timer never fires; and
// BlockUntil returns once another goroutine has armed a timer.
func TestManualTimers(t *testing.T) {
	start := time.Unix(0, 0)
	m := NewManual(start)
	late, early, stopped := m.NewTimer(3*time.Second), m.NewTimer(time.Second), m.NewTimer(2*time.Second)
	stopped.Stop()
	m.Advance(2 * time.Second)
	if at := <-early.C; !at.Equal(start.Add(time.Second)) {
		t.Fatalf("early fired with %v, want its deadline", at)
	}
	if len(late.C) != 0 || len(stopped.C) != 0 {
		t.Fatal("a timer not yet due, or stopped, fired")
	}
	m.Advance(time.Hour)
	if at := <-late.C; !at.Equal(start.Add(3*time.Second)) || len(stopped.C) != 0 {
		t.Fatalf("late fired with %v; the stopped timer fired: %v", at, len(stopped.C) != 0)
	}
	if fired := m.NewTimer(0); len(fired.C) != 1 {
		t.Fatal("a zero timer fires at once")
	}

	armed := make(chan *Timer)
	go func() { armed <- m.NewTimer(time.Minute) }()
	m.BlockUntil(1)
	m.Advance(time.Minute)
	<-(<-armed).C
}
