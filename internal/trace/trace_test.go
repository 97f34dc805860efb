package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/metrics"
)

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Errorf("nil trace ID = %q", tr.ID())
	}
	sp := tr.StartSpan("x", "k", "v")
	sp.End()
	sp.End("c", "d")
	sp.Abandon("e", "f")
	sp.Part("x[0]", time.Millisecond, "g", "h")
	tr.Add(Span{Name: "y"})
	tr.AddAll([]Span{{Name: "z"}})
	tr.Finish()
	if got := tr.Spans(); got != nil {
		t.Errorf("nil trace spans = %v", got)
	}
	if d := tr.Snapshot(); d.ID != "" || len(d.Spans) != 0 {
		t.Errorf("nil trace snapshot = %+v", d)
	}
	var st *Store
	st.Track(New("tr-x"))
	if st.Get("tr-x") != nil || st.Len() != 0 || st.Recent(1) != nil {
		t.Error("nil store misbehaved")
	}
}

func TestSpanRecording(t *testing.T) {
	tr := New("tr-1")
	sp := tr.StartSpan("compile", "cache", "miss")
	time.Sleep(time.Millisecond)
	sp.End("image", "cuda")
	tr.StartSpan("grade").End("correct", "true")
	tr.AddAll([]Span{{Name: "exec", Dur: 5 * time.Millisecond}})
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Name != "compile" || spans[0].Attrs["cache"] != "miss" || spans[0].Attrs["image"] != "cuda" {
		t.Errorf("compile span = %+v", spans[0])
	}
	if spans[0].Dur <= 0 {
		t.Errorf("compile span has no duration: %+v", spans[0])
	}
	if spans[1].Attrs["correct"] != "true" {
		t.Errorf("grade span = %+v", spans[1])
	}
	d := tr.Snapshot()
	if !d.Finished || d.ID != "tr-1" || len(d.Spans) != 3 || d.Dur <= 0 {
		t.Errorf("snapshot = %+v", d)
	}
}

func TestStoreRingEviction(t *testing.T) {
	st := NewStore(3)
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, st.NewTrace().ID())
	}
	if st.Len() != 3 {
		t.Fatalf("len = %d, want 3", st.Len())
	}
	for _, id := range ids[:2] {
		if st.Get(id) != nil {
			t.Errorf("evicted trace %s still retrievable", id)
		}
	}
	for _, id := range ids[2:] {
		if st.Get(id) == nil {
			t.Errorf("recent trace %s lost", id)
		}
	}
	recent := st.Recent(2)
	if len(recent) != 2 || recent[0].ID != ids[4] || recent[1].ID != ids[3] {
		t.Errorf("recent = %+v, want newest first", recent)
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

// TestConcurrentUse exercises trace + store under -race.
func TestConcurrentUse(t *testing.T) {
	st := NewStore(8)
	tr := st.NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.StartSpan(fmt.Sprintf("s%d-%d", g, i)).End()
				st.NewTrace()
				st.Recent(4)
				_ = tr.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 400 {
		t.Errorf("spans = %d, want 400", got)
	}
}

// sample is the one value a histogram holds, in milliseconds.
func sample(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	h := reg.Hist(name)
	if h == nil || h.Count() != 1 {
		t.Fatalf("%s: want exactly one sample, have %v", name, h)
	}
	return h.Sum()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TestStageOneReading: a stage's span and its histogram sample are one
// clock reading, End hands that reading back, and a histogram the stage
// falls into as well gets the same number. An abandoned stage leaves a
// span and no sample; an untraced one leaves a sample and no span.
func TestStageOneReading(t *testing.T) {
	clk := clock.NewManual(time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC))
	reg := metrics.NewRegistry()
	tr := New("tr-1")

	start := clk.Now()
	draftStage := tr.StageAt(start, clk, reg, "stage_draft_ms", "draft", "pickup", "leading", "wake", "").
		Also("stage_draft_warm_ms")
	clk.Advance(3 * time.Millisecond)
	d := draftStage.End("cache", "hit")
	if d != 3*time.Millisecond {
		t.Errorf("End = %v, want the 3ms the stage's clock moved", d)
	}
	tr.StageAt(clk.Now(), clk, reg, "stage_cancel_ms", "cancelled").Abandon("cancelled", "true")
	ex := tr.StageAt(clk.Now(), clk, reg, "stage_exec_ms", "")
	ex.Part("exec[dataset=0]", time.Millisecond, "engine", "warp", "instructions", "")
	clk.Advance(3 * time.Millisecond)
	exec := ex.End()
	var untraced *Trace
	untraced.Stage(reg, "stage_untraced_ms", "untraced").End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %+v, want draft, cancelled and one exec part", spans)
	}
	draft, cancelled, part := spans[0], spans[1], spans[2]
	if draft.Name != "draft" || draft.Start != start || draft.Dur != d {
		t.Errorf("draft span = %+v, want start %v and dur %v", draft, start, d)
	}
	want := map[string]string{"pickup": "leading", "cache": "hit"} // an empty value is left out
	if fmt.Sprint(draft.Attrs) != fmt.Sprint(want) {
		t.Errorf("draft attrs = %v, want %v", draft.Attrs, want)
	}
	for _, h := range []string{"stage_draft_ms", "stage_draft_warm_ms"} {
		if got := sample(t, reg, h); got != ms(draft.Dur) {
			t.Errorf("%s = %v, span says %v", h, got, ms(draft.Dur))
		}
	}
	if cancelled.Name != "cancelled" || cancelled.Attrs["cancelled"] != "true" || reg.Hist("stage_cancel_ms") != nil {
		t.Errorf("abandoned stage: span %+v, histogram %v; want a span and no sample", cancelled, reg.Hist("stage_cancel_ms"))
	}
	if part.Name != "exec[dataset=0]" || part.Dur != time.Millisecond || part.Attrs["engine"] != "warp" || len(part.Attrs) != 1 {
		t.Errorf("part span = %+v", part)
	}
	if got := sample(t, reg, "stage_exec_ms"); got != ms(exec) || part.Start.Add(exec) != clk.Now() {
		t.Errorf("exec stage: sample %v, End %v, part start %v, now %v", got, exec, part.Start, clk.Now())
	}
	if sample(t, reg, "stage_untraced_ms") < 0 {
		t.Error("untraced stage observed a negative duration")
	}
}

// TestUntracedStageAllocatesNothing: instrumenting a stage costs an
// untraced job no allocation, attributes included.
func TestUntracedStageAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	reg := metrics.NewRegistry()
	for i := 0; i < 5000; i++ { // past the histogram's reservoir, so a sample overwrites
		reg.ObserveDuration("stage_compile_ms", time.Millisecond)
	}
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		cs := tr.Stage(reg, "stage_compile_ms", "compile", "worker", "worker-001")
		cs.Part("compile[0]", time.Millisecond, "k", "v")
		cs.End("cache", "hit", "ok", "true")
	})
	if allocs != 0 {
		t.Errorf("untraced stage allocates %v times per run, want 0", allocs)
	}
}
