package devsession

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"webgpu/internal/metrics"
	"webgpu/internal/minicuda"
	"webgpu/internal/progcache"
)

// spacingRig is one session on real timers, with the compile of its first
// draft optionally held so a test can push into an in-flight analysis.
type spacingRig struct {
	t       *testing.T
	s       *Session
	ch      <-chan Event
	reg     *metrics.Registry
	ref     string
	pushes  int
	started chan struct{} // first compile entered (holdFirst rigs)
	release chan struct{} // lets the held first compile return
}

func newSpacingRig(t *testing.T, debounce time.Duration, holdFirst bool) *spacingRig {
	l := refLab(t)
	r := &spacingRig{t: t, reg: metrics.NewRegistry(), ref: l.Reference,
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
	m := NewManager(Config{Cache: cache, Metrics: r.reg, Debounce: debounce, DraftInterval: -1})
	t.Cleanup(m.CloseAll)
	s, err := m.Open("u1", l.ID, l.Dialect)
	if err != nil {
		t.Fatal(err)
	}
	_, ch, unsub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(unsub)
	r.s, r.ch = s, ch
	return r
}

// pushed is one push: the draft number, and two readings of the test's
// clock that bracket the manager's (the draft's queuedAt lies between).
type pushed struct {
	seq           int64
	before, after time.Time
}

// push sends the next distinct source.
func (r *spacingRig) push() pushed {
	r.t.Helper()
	src := r.ref + strings.Repeat("\n", r.pushes)
	r.pushes++
	p := pushed{before: time.Now()}
	seq, _, err := r.s.PushDraft(src)
	if err != nil {
		r.t.Fatal(err)
	}
	p.seq, p.after = seq, time.Now()
	return p
}

// await returns the draft's diagnostics payload and when it arrived.
func (r *spacingRig) await(seq int64) (DiagnosticsPayload, time.Time) {
	r.t.Helper()
	return awaitDiagnostics(r.t, r.ch, seq), time.Now()
}

func (r *spacingRig) pickups() (leading, trailing float64) {
	return r.reg.Counter("devsession_pickups_leading"), r.reg.Counter("devsession_pickups_trailing")
}

// TestPickupSpacing pins where the debounce window is anchored: at the
// previous pickup, not at each draft's arrival. Real timers; every bound
// that separates the two anchorings leaves at least 150 ms for a slow host.
func TestPickupSpacing(t *testing.T) {
	const (
		immediate = 250 * time.Millisecond // "at once" on a loaded 2-vCPU host
		window    = 600 * time.Millisecond
		gap       = 300 * time.Millisecond
	)
	rows := []struct {
		name      string
		debounce  time.Duration
		holdFirst bool
		run       func(t *testing.T, r *spacingRig)
	}{
		{"isolated draft is picked up at once", time.Second, false, func(t *testing.T, r *spacingRig) {
			p := r.push()
			dp, got := r.await(p.seq)
			if d := got.Sub(p.before); d >= immediate {
				t.Fatalf("diagnostics after %v, want < %v: the draft sat out the window", d, immediate)
			}
			if dp.WaitedMS < 0 || dp.WaitedMS >= ms(immediate) {
				t.Fatalf("waited_ms = %v, want ≈ 0", dp.WaitedMS)
			}
			if lead, trail := r.pickups(); lead != 1 || trail != 0 {
				t.Fatalf("pickups leading/trailing = %v/%v, want 1/0", lead, trail)
			}
		}},
		{"a draft after the window is leading again", window, false, func(t *testing.T, r *spacingRig) {
			// Leading a, then b and c inside a's window: c's pickup leaves
			// b's wake-up token behind, so the loop wakes once more with
			// nothing pending. That wake may neither leave the timer armed
			// (d would block) nor re-arm it (d would wait a window).
			r.await(r.push().seq)
			r.push()
			r.await(r.push().seq)
			time.Sleep(window + gap)
			d := r.push()
			dp, got := r.await(d.seq)
			if lat := got.Sub(d.before); lat >= immediate {
				t.Fatalf("draft after a quiet window took %v, want < %v", lat, immediate)
			}
			if dp.WaitedMS >= ms(immediate) {
				t.Fatalf("waited_ms = %v, want ≈ 0", dp.WaitedMS)
			}
			if lead, trail := r.pickups(); lead != 2 || trail != 1 {
				t.Fatalf("pickups leading/trailing = %v/%v, want 2/1", lead, trail)
			}
		}},
		{"a draft inside the window waits for that pickup's window, not its own", window, false, func(t *testing.T, r *spacingRig) {
			a := r.push()
			r.await(a.seq)
			time.Sleep(gap)
			b := r.push()
			dp, got := r.await(b.seq)
			// a was picked up no earlier than a.before, so b's pickup may
			// not come before a.before+window: b waits at least the
			// remainder …
			remainder := ms(window - b.after.Sub(a.before))
			if since := got.Sub(a.before); since < window {
				t.Fatalf("second pickup's event %v after the first push, inside the %v window", since, window)
			}
			if dp.WaitedMS < remainder {
				t.Fatalf("waited_ms = %.1f, want >= the window's remainder %.1f", dp.WaitedMS, remainder)
			}
			// … and only the remainder: a window anchored at b's own
			// arrival would make it wait the whole of it.
			if max := ms(window - gap/2); dp.WaitedMS >= max {
				t.Fatalf("waited_ms = %.1f, want ≈ %.1f (the remainder), < %.1f", dp.WaitedMS, remainder, max)
			}
			if lead, trail := r.pickups(); lead != 1 || trail != 1 {
				t.Fatalf("pickups leading/trailing = %v/%v, want 1/1", lead, trail)
			}
		}},
		{"a push that cancels an in-flight analysis still waits out the window", window, true, func(t *testing.T, r *spacingRig) {
			a := r.push()
			select {
			case <-r.started:
			case <-time.After(5 * time.Second):
				t.Fatal("first compile never started")
			}
			b := r.push() // cancels a, whose compile is still held
			close(r.release)
			_, got := r.await(b.seq)
			if since := got.Sub(a.before); since < window {
				t.Fatalf("replacement picked up %v after the cancelled draft's push, inside the %v window", since, window)
			}
			if c := r.reg.Counter("devsession_draft_cancelled"); c != 1 {
				t.Fatalf("devsession_draft_cancelled = %v, want 1", c)
			}
			if lead, trail := r.pickups(); lead != 1 || trail != 1 {
				t.Fatalf("pickups leading/trailing = %v/%v, want 1/1", lead, trail)
			}
		}},
		{"negative debounce picks every draft up at once", -1, false, func(t *testing.T, r *spacingRig) {
			for i := 0; i < 3; i++ {
				p := r.push()
				if _, got := r.await(p.seq); got.Sub(p.before) >= immediate {
					t.Fatalf("draft %d took %v with the debounce off", p.seq, got.Sub(p.before))
				}
			}
			if lead, trail := r.pickups(); lead != 3 || trail != 0 {
				t.Fatalf("pickups leading/trailing = %v/%v, want 3/0", lead, trail)
			}
		}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel() // the rows mostly sleep
			row.run(t, newSpacingRig(t, row.debounce, row.holdFirst))
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
	r := newSpacingRig(t, window, false)
	begin := time.Now()
	var last int64
	for i := 0; i < drafts; i++ {
		last = r.push().seq
		time.Sleep(spacing)
	}
	_, end := r.await(last)

	lead, trail := r.pickups()
	started := r.reg.Counter("kernelcheck_incremental_runs") + r.reg.Counter("devsession_draft_cancelled")
	if started != lead+trail {
		t.Fatalf("analyses finished or cancelled = %v, pickups = %v", started, lead+trail)
	}
	bound := math.Ceil(float64(end.Sub(begin))/float64(window)) + 1
	t.Logf("%d drafts in %v: %v analyses started (%v leading, %v trailing), bound %v",
		drafts, end.Sub(begin), started, lead, trail, bound)
	if started > bound {
		t.Fatalf("%v analyses started in %v, more than one per %v window (+1)", started, end.Sub(begin), window)
	}
	if started < 2 {
		t.Fatalf("%v analyses started, want the first draft and the last at least", started)
	}
	if got := r.reg.Counter("devsession_drafts"); got != drafts {
		t.Fatalf("devsession_drafts = %v, want %d", got, drafts)
	}
}
