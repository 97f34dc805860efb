package devsession

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/metrics"
	"webgpu/internal/minicuda"
	"webgpu/internal/progcache"
)

// spacingRig is one session on a clock the test moves with advance, with
// the compile of its first draft optionally held so a test can push into
// an in-flight analysis.
type spacingRig struct {
	t       *testing.T
	m       *Manager
	s       *Session
	ch      <-chan Event
	unsub   func()
	reg     *metrics.Registry
	ref     string
	pushes  int
	advance func(time.Duration)
	started chan struct{} // first compile entered (holdFirst rigs)
	release chan struct{} // lets the held first compile return
}

func newSpacingRig(t *testing.T, clk clock.Clock, advance func(time.Duration), debounce time.Duration, holdFirst bool) *spacingRig {
	l := refLab(t)
	r := &spacingRig{t: t, reg: metrics.NewRegistry(), ref: l.Reference, advance: advance,
		started: make(chan struct{}, 1), release: make(chan struct{})}
	cache := progcache.New(16, nil)
	var first sync.Once
	cache.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		if holdFirst {
			first.Do(func() {
				r.started <- struct{}{}
				<-r.release
			})
		}
		return minicuda.Compile(src, d)
	})
	r.m = NewManager(Config{Cache: cache, Metrics: r.reg, Clock: clk, Debounce: debounce, DraftInterval: -1})
	s, err := r.m.Open("u1", l.ID, l.Dialect)
	if err != nil {
		t.Fatal(err)
	}
	_, ch, unsub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	r.s, r.ch, r.unsub = s, ch, unsub
	return r
}

// newManualRig is a spacing rig on a clock.Manual, closed at cleanup.
func newManualRig(t *testing.T, debounce time.Duration, holdFirst bool) (*spacingRig, *clock.Manual) {
	clk := clock.NewManual(time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC))
	r := newSpacingRig(t, clk, clk.Advance, debounce, holdFirst)
	t.Cleanup(r.close)
	return r, clk
}

func (r *spacingRig) close() {
	r.unsub()
	r.m.CloseAll()
}

// push sends the next distinct source and returns its draft number.
func (r *spacingRig) push() int64 {
	r.t.Helper()
	src := r.ref + strings.Repeat("\n", r.pushes)
	r.pushes++
	seq, _, err := r.s.PushDraft(src)
	if err != nil {
		r.t.Fatal(err)
	}
	return seq
}

// await returns the draft's diagnostics payload.
func (r *spacingRig) await(seq int64) DiagnosticsPayload {
	r.t.Helper()
	return awaitDiagnostics(r.t, r.ch, seq)
}

// waited asserts the draft's push → pickup time.
func (r *spacingRig) waited(seq int64, want time.Duration) {
	r.t.Helper()
	if got := r.await(seq).WaitedMS; got != ms(want) {
		r.t.Fatalf("draft %d: waited_ms = %v, want %v", seq, got, ms(want))
	}
}

func (r *spacingRig) pickups(lead, trail float64) {
	r.t.Helper()
	l, tr := r.reg.Counter("devsession_pickups_leading"), r.reg.Counter("devsession_pickups_trailing")
	if l != lead || tr != trail {
		r.t.Fatalf("pickups leading/trailing = %v/%v, want %v/%v", l, tr, lead, trail)
	}
}

const (
	spacingWindow = 600 * time.Millisecond
	spacingGap    = 250 * time.Millisecond
)

// spacingRows pin where the debounce window is anchored: at the previous
// pickup, not at each draft's arrival. Every wait is exact, because the
// session's clock moves only when the row advances it.
var spacingRows = []struct {
	name      string
	debounce  time.Duration
	holdFirst bool
	run       func(t *testing.T, r *spacingRig)
}{
	{"isolated draft is picked up at once", spacingWindow, false, func(t *testing.T, r *spacingRig) {
		r.waited(r.push(), 0)
		r.pickups(1, 0)
	}},
	{"a draft after the window is leading again", spacingWindow, false, func(t *testing.T, r *spacingRig) {
		// Leading a, then b and c inside a's window: c's pickup may leave
		// b's wake-up token behind, so the loop wakes once more with
		// nothing pending. That wake may neither leave the timer armed
		// (d would block) nor re-arm it (d would wait a window).
		r.waited(r.push(), 0)
		r.push()
		c := r.push()
		r.advance(spacingWindow)
		r.waited(c, spacingWindow)
		r.advance(spacingWindow + spacingGap)
		r.waited(r.push(), 0)
		r.pickups(2, 1)
	}},
	{"a draft inside the window waits for that pickup's window, not its own", spacingWindow, false, func(t *testing.T, r *spacingRig) {
		r.waited(r.push(), 0)
		r.advance(spacingGap)
		b := r.push()
		r.advance(spacingWindow - spacingGap)
		r.waited(b, spacingWindow-spacingGap) // the remainder, not the window
		r.pickups(1, 1)
	}},
	{"a push that cancels an in-flight analysis still waits out the window", spacingWindow, true, func(t *testing.T, r *spacingRig) {
		r.push()
		select {
		case <-r.started:
		case <-time.After(5 * time.Second):
			t.Fatal("first compile never started")
		}
		b := r.push() // cancels a, whose compile is still held
		close(r.release)
		r.advance(spacingWindow)
		r.waited(b, spacingWindow)
		if c := r.reg.Counter("devsession_draft_cancelled"); c != 1 {
			t.Fatalf("devsession_draft_cancelled = %v, want 1", c)
		}
		r.pickups(1, 1)
	}},
	{"negative debounce picks every draft up at once", -1, false, func(t *testing.T, r *spacingRig) {
		for i := 0; i < 3; i++ {
			r.waited(r.push(), 0)
		}
		r.pickups(3, 0)
	}},
}

func TestPickupSpacing(t *testing.T) {
	for _, row := range spacingRows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			r, _ := newManualRig(t, row.debounce, row.holdFirst)
			row.run(t, r)
		})
	}
}

// TestBurstStartsAtMostOneAnalysisPerWindow measures the bound the window
// exists for: however fast drafts arrive, a session starts at most one
// analysis per window (plus the leading one).
func TestBurstStartsAtMostOneAnalysisPerWindow(t *testing.T) {
	const (
		window  = 20 * time.Millisecond
		drafts  = 200
		spacing = 5 * time.Millisecond
	)
	r, clk := newManualRig(t, window, false)
	begin := clk.Now()
	last := r.push()
	clk.BlockUntil(1) // the first draft is picked up on its own
	for i := 1; i < drafts; i++ {
		clk.Advance(spacing)
		last = r.push()
	}
	// The last draft waits for one more window at most: the one armed at
	// the pickup before it, which may not be armed yet.
	clk.BlockUntil(1)
	clk.Advance(window)
	r.await(last)
	elapsed := clk.Now().Sub(begin)

	lead, trail := r.reg.Counter("devsession_pickups_leading"), r.reg.Counter("devsession_pickups_trailing")
	started := r.reg.Counter("kernelcheck_incremental_runs") + r.reg.Counter("devsession_draft_cancelled")
	if started != lead+trail {
		t.Fatalf("analyses finished or cancelled = %v, pickups = %v", started, lead+trail)
	}
	bound := math.Ceil(float64(elapsed)/float64(window)) + 1
	t.Logf("%d drafts in %v: %v analyses started (%v leading, %v trailing), bound %v",
		drafts, elapsed, started, lead, trail, bound)
	if started > bound {
		t.Fatalf("%v analyses started in %v, more than one per %v window (+1)", started, elapsed, window)
	}
	if started < 2 {
		t.Fatalf("%v analyses started, want the first draft and the last at least", started)
	}
	if got := r.reg.Counter("devsession_drafts"); got != drafts {
		t.Fatalf("devsession_drafts = %v, want %d", got, drafts)
	}
}
