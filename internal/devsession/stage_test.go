package devsession

import (
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/metrics"
	"webgpu/internal/progcache"
	"webgpu/internal/trace"
)

// tickClock reads a millisecond later at every Now.
type tickClock struct{ *clock.Manual }

func (c tickClock) Now() time.Time {
	c.Advance(time.Millisecond)
	return c.Manual.Now()
}

// TestDraftStageIsOneNumber: a draft's span, its devsession_draft_ms and
// devsession_draft_warm_ms samples and the elapsed_ms its events carry are
// one reading of the manager's clock.
func TestDraftStageIsOneNumber(t *testing.T) {
	l := refLab(t)
	clk := tickClock{clock.NewManual(time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC))}
	cache := progcache.New(progcache.DefaultCapacity, nil)
	if _, err := cache.Compile(l.Reference, l.Dialect); err != nil {
		t.Fatal(err)
	}
	reg, traces := metrics.NewRegistry(), trace.NewStore(0)
	m := NewManager(Config{Cache: cache, Metrics: reg, Traces: traces, Clock: clk, Debounce: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, _ := m.Open("u1", l.ID, l.Dialect)
	_, ch, unsub, _ := s.Subscribe(0)
	defer unsub()
	seq, _, err := s.PushDraft(l.Reference)
	if err != nil {
		t.Fatal(err)
	}
	cp := waitFor(t, ch, "compile event", func(e Event) bool { return e.Type == EventCompile }).Data.(CompilePayload)
	dp := awaitDiagnostics(t, ch, seq)
	if cp.Cache != "hit" {
		t.Fatalf("draft cache = %s, want a warm hit", cp.Cache)
	}

	recent := traces.Recent(1)
	if len(recent) != 1 || len(recent[0].Spans) != 1 || recent[0].Spans[0].Name != "draft" {
		t.Fatalf("traces = %+v, want one draft span", recent)
	}
	want := ms(recent[0].Spans[0].Dur)
	if want <= 0 {
		t.Fatalf("draft span lasted %v on a clock that always advances", recent[0].Spans[0].Dur)
	}
	for _, name := range []string{"devsession_draft_ms", "devsession_draft_warm_ms"} {
		if h := reg.Hist(name); h == nil || h.Count() != 1 || h.Sum() != want {
			t.Errorf("%s = %v, want one sample of %v", name, h, want)
		}
	}
	if cp.ElapsedMS != want || dp.ElapsedMS != want {
		t.Errorf("elapsed_ms: compile %v, diagnostics %v; the span says %v", cp.ElapsedMS, dp.ElapsedMS, want)
	}
}
