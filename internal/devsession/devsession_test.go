package devsession

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/metrics"
	"webgpu/internal/minicuda"
	"webgpu/internal/progcache"
)

func refLab(t testing.TB) *labs.Lab {
	t.Helper()
	l := labs.ByID("vector-add")
	if l == nil {
		t.Fatal("vector-add lab missing")
	}
	return l
}

// waitFor reads events until the predicate matches (5s budget).
func waitFor(t testing.TB, ch <-chan Event, what string, want func(Event) bool) Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("event channel closed waiting for %s", what)
			}
			if want(ev) {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// awaitDiagnostics reads events until the draft's diagnostics arrive.
func awaitDiagnostics(t testing.TB, ch <-chan Event, seq int64) DiagnosticsPayload {
	t.Helper()
	ev := waitFor(t, ch, fmt.Sprintf("diagnostics of draft %d", seq), func(e Event) bool {
		dp, ok := e.Data.(DiagnosticsPayload)
		return ok && dp.Draft == seq
	})
	return ev.Data.(DiagnosticsPayload)
}

// poll spins until cond holds (5s budget).
func poll(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out polling for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDraftFlowCompileThenDiagnostics(t *testing.T) {
	l := refLab(t)
	m := NewManager(Config{Debounce: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, err := m.Open("u1", l.ID, l.Dialect)
	if err != nil {
		t.Fatal(err)
	}
	replay, ch, unsub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	if len(replay) != 1 || replay[0].Type != EventStatus {
		t.Fatalf("replay = %+v, want the open status event", replay)
	}

	seq, coalesced, err := s.PushDraft(l.Reference)
	if err != nil || coalesced {
		t.Fatalf("PushDraft = %d, %v, %v", seq, coalesced, err)
	}
	ev := waitFor(t, ch, "compile event", func(e Event) bool { return e.Type == EventCompile })
	cp := ev.Data.(CompilePayload)
	if cp.Draft != seq || !cp.OK || cp.Error != "" {
		t.Fatalf("compile payload = %+v", cp)
	}
	dv := waitFor(t, ch, "diagnostics event", func(e Event) bool { return e.Type == EventDiagnostics })
	dp := dv.Data.(DiagnosticsPayload)
	if dp.Draft != seq || dp.Diagnostics == nil {
		t.Fatalf("diagnostics payload = %+v", dp)
	}
	if dv.Seq <= ev.Seq {
		t.Fatalf("diagnostics seq %d not after compile seq %d", dv.Seq, ev.Seq)
	}
}

func TestDraftCompileErrorEmitted(t *testing.T) {
	l := refLab(t)
	m := NewManager(Config{Debounce: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, _ := m.Open("u1", l.ID, l.Dialect)
	_, ch, unsub, _ := s.Subscribe(0)
	defer unsub()
	seq, _, err := s.PushDraft("__global__ void broken( {")
	if err != nil {
		t.Fatal(err)
	}
	ev := waitFor(t, ch, "compile event", func(e Event) bool { return e.Type == EventCompile })
	cp := ev.Data.(CompilePayload)
	if cp.Draft != seq || cp.OK || cp.Error == "" {
		t.Fatalf("compile payload = %+v, want a compile error", cp)
	}
}

// TestCoalescingLatestWins is the core coalescing contract: the first
// draft into a quiet session is picked up at once (the leading edge), and
// a burst landing inside the window that pickup opened produces exactly
// one more analysis — of the newest source, when the window closes.
func TestCoalescingLatestWins(t *testing.T) {
	l := refLab(t)
	var mu sync.Mutex
	var compiled []string
	cache := progcache.New(16, nil)
	cache.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		mu.Lock()
		compiled = append(compiled, src)
		mu.Unlock()
		return minicuda.Compile(src, d)
	})
	const window = 150 * time.Millisecond
	reg := metrics.NewRegistry()
	m := NewManager(Config{Cache: cache, Metrics: reg, Debounce: window, DraftInterval: -1})
	defer m.CloseAll()
	s, _ := m.Open("u1", l.ID, l.Dialect)
	_, ch, unsub, _ := s.Subscribe(0)
	defer unsub()

	const n = 5
	pushed := time.Now()
	first, coalesced, err := s.PushDraft(l.Reference)
	if err != nil || coalesced {
		t.Fatalf("first push = %d, %v, %v", first, coalesced, err)
	}
	awaitDiagnostics(t, ch, first)
	lead := time.Since(pushed)
	if lead >= window {
		t.Fatalf("first draft's diagnostics took %v: it sat out the %v window", lead, window)
	}

	// The rest of the burst lands inside the window the pickup opened.
	var lastSeq int64
	var lastSrc string
	for i := 1; i < n; i++ {
		src := l.Reference + strings.Repeat("\n", i)
		seq, coalesced, err := s.PushDraft(src)
		if err != nil {
			t.Fatal(err)
		}
		if wantCo := i > 1; coalesced != wantCo {
			t.Fatalf("push %d coalesced = %v, want %v", i, coalesced, wantCo)
		}
		lastSeq, lastSrc = seq, src
	}
	dp := awaitDiagnostics(t, ch, lastSeq)
	if since := time.Since(pushed); since < window {
		t.Fatalf("trailing pickup's event came %v after the first push, before the %v window closed", since, window)
	}
	if dp.WaitedMS <= 0 {
		t.Fatalf("trailing draft waited_ms = %v, want > 0", dp.WaitedMS)
	}

	mu.Lock()
	got := append([]string(nil), compiled...)
	mu.Unlock()
	if len(got) != 2 || got[0] != l.Reference || got[1] != lastSrc {
		t.Fatalf("compiled %d sources, want the first draft and the latest, once each", len(got))
	}
	if c := reg.Counter("devsession_draft_coalesced"); c != n-2 {
		t.Fatalf("devsession_draft_coalesced = %v, want %d", c, n-2)
	}
	if c := reg.Counter("devsession_drafts"); c != n {
		t.Fatalf("devsession_drafts = %v, want %d", c, n)
	}
	if lead, trail := reg.Counter("devsession_pickups_leading"), reg.Counter("devsession_pickups_trailing"); lead != 1 || trail != 1 {
		t.Fatalf("pickups leading/trailing = %v/%v, want 1/1", lead, trail)
	}
}

// TestUnsubscribeCancelsInflight: dropping the last subscriber cancels the
// analysis running on its behalf.
func TestUnsubscribeCancelsInflight(t *testing.T) {
	l := refLab(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	cache := progcache.New(16, nil)
	cache.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		started <- struct{}{}
		<-release
		return minicuda.Compile(src, d)
	})
	defer close(release)
	reg := metrics.NewRegistry()
	m := NewManager(Config{Cache: cache, Metrics: reg, Debounce: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, _ := m.Open("u1", l.ID, l.Dialect)
	_, _, unsub, _ := s.Subscribe(0)

	if _, _, err := s.PushDraft(l.Reference); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("compile never started")
	}
	unsub() // last subscriber leaves mid-analysis

	poll(t, "cancelled-draft counter", func() bool {
		return reg.Counter("devsession_draft_cancelled") >= 1
	})
	poll(t, "cancelled status event", func() bool {
		for _, ev := range s.History(0) {
			if sp, ok := ev.Data.(StatusPayload); ok && sp.State == "cancelled" {
				return true
			}
		}
		return false
	})
}

// TestStaleInflightCancelledByNewerDraft: a draft pushed while an analysis
// is running cancels that stale analysis; the newer draft still completes.
func TestStaleInflightCancelledByNewerDraft(t *testing.T) {
	l := refLab(t)
	started := make(chan struct{}, 4)
	gate := make(chan struct{}, 4)
	var calls int
	var mu sync.Mutex
	cache := progcache.New(16, nil)
	cache.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			started <- struct{}{}
			<-gate // hold only the first compile
		}
		return minicuda.Compile(src, d)
	})
	reg := metrics.NewRegistry()
	m := NewManager(Config{Cache: cache, Metrics: reg, Debounce: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, _ := m.Open("u1", l.ID, l.Dialect)
	_, ch, unsub, _ := s.Subscribe(0)
	defer unsub()

	if _, _, err := s.PushDraft(l.Reference); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first compile never started")
	}
	seq2, _, err := s.PushDraft(l.Reference + "\n")
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // let the (now stale) first compile finish

	ev := waitFor(t, ch, "second draft's compile", func(e Event) bool {
		cp, ok := e.Data.(CompilePayload)
		return ok && cp.Draft == seq2
	})
	if cp := ev.Data.(CompilePayload); !cp.OK {
		t.Fatalf("second draft failed: %+v", cp)
	}
	if c := reg.Counter("devsession_draft_cancelled"); c != 1 {
		t.Fatalf("devsession_draft_cancelled = %v, want 1", c)
	}
}

func TestSubscribeReplayAfterSeq(t *testing.T) {
	l := refLab(t)
	m := NewManager(Config{Debounce: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, _ := m.Open("u1", l.ID, l.Dialect)

	if _, _, err := s.PushDraft(l.Reference); err != nil {
		t.Fatal(err)
	}
	// open status + compile + diagnostics
	poll(t, "three buffered events", func() bool { return len(s.History(0)) >= 3 })

	replay, _, unsub, err := s.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	if len(replay) < 2 {
		t.Fatalf("replay after seq 1 has %d events, want >= 2", len(replay))
	}
	for _, ev := range replay {
		if ev.Seq <= 1 {
			t.Fatalf("replay contains seq %d <= afterSeq 1", ev.Seq)
		}
	}
	if replay[0].Type != EventCompile || replay[1].Type != EventDiagnostics {
		t.Fatalf("replay order = %s, %s", replay[0].Type, replay[1].Type)
	}
}

func TestSessionLimits(t *testing.T) {
	l := refLab(t)
	m := NewManager(Config{MaxSessions: 2, MaxPerUser: 1, Debounce: -1})
	defer m.CloseAll()
	if _, err := m.Open("u1", l.ID, l.Dialect); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("u1", l.ID, l.Dialect); !errors.Is(err, ErrUserSessionLimit) {
		t.Fatalf("second u1 session err = %v, want ErrUserSessionLimit", err)
	}
	if _, err := m.Open("u2", l.ID, l.Dialect); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("u3", l.ID, l.Dialect); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third session err = %v, want ErrSessionLimit", err)
	}
	if m.Active() != 2 {
		t.Fatalf("Active = %d, want 2", m.Active())
	}
}

func TestDraftRateLimit(t *testing.T) {
	l := refLab(t)
	now := time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	reg := metrics.NewRegistry()
	m := NewManager(Config{
		Clock: clock, Metrics: reg,
		DraftBurst: 2, DraftInterval: 100 * time.Millisecond, Debounce: -1,
	})
	defer m.CloseAll()
	s, _ := m.Open("u1", l.ID, l.Dialect)

	for i := 0; i < 2; i++ {
		if _, _, err := s.PushDraft(l.Reference); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if _, _, err := s.PushDraft(l.Reference); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("burst-exhausted push err = %v, want ErrRateLimited", err)
	}
	if c := reg.Counter("devsession_rate_limited"); c != 1 {
		t.Fatalf("devsession_rate_limited = %v, want 1", c)
	}

	mu.Lock()
	now = now.Add(time.Second) // refills both buckets
	mu.Unlock()
	if _, _, err := s.PushDraft(l.Reference); err != nil {
		t.Fatalf("post-refill push: %v", err)
	}
}

// TestUserBucketsForgetIdleUsers: a course's worth of one-time drafters
// does not stay in the per-user map, and sweeping the refilled buckets
// changes nothing for a user who is still short of tokens.
func TestUserBucketsForgetIdleUsers(t *testing.T) {
	now := time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC)
	m := NewManager(Config{DraftBurst: 2, DraftInterval: 100 * time.Millisecond})
	defer m.CloseAll()
	for i := 0; i < 50000; i++ {
		if !m.allowUser(fmt.Sprintf("user-%06d", i), now) {
			t.Fatalf("user %d refused its first draft", i)
		}
	}
	now = now.Add(150 * time.Millisecond)
	if !m.allowUser("live", now) || !m.allowUser("live", now) {
		t.Fatal("live user refused inside its burst")
	}
	now = now.Add(50 * time.Millisecond) // one refill time after the rush
	if !m.allowUser("late", now) {
		t.Fatal("late user refused its first draft")
	}
	if n := len(m.buckets); n >= maxUserBuckets {
		t.Fatalf("map holds %d buckets one refill time after the rush, want < %d", n, maxUserBuckets)
	}
	// The live user spent both tokens 50 ms ago: half a token has come
	// back, so the sweep must have kept the bucket.
	if m.allowUser("live", now) {
		t.Fatal("live user's spent bucket was swept: a third draft passed 50 ms after two")
	}
	now = now.Add(50 * time.Millisecond)
	if !m.allowUser("live", now) {
		t.Fatal("live user refused after a full interval")
	}
}

func TestIdleEviction(t *testing.T) {
	l := refLab(t)
	now := time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	reg := metrics.NewRegistry()
	m := NewManager(Config{Clock: clock, Metrics: reg, IdleTimeout: time.Minute, Debounce: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, _ := m.Open("u1", l.ID, l.Dialect)

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	m.Sweep()
	if m.Get(s.ID) != nil || m.Active() != 0 {
		t.Fatalf("session survived the sweep")
	}
	poll(t, "evicted session to reject drafts", func() bool {
		_, _, err := s.PushDraft(l.Reference)
		return errors.Is(err, ErrClosed)
	})
	if c := reg.Counter("devsession_evicted"); c != 1 {
		t.Fatalf("devsession_evicted = %v, want 1", c)
	}
	// Eviction freed the per-user slot.
	if _, err := m.Open("u1", l.ID, l.Dialect); err != nil {
		t.Fatalf("reopen after eviction: %v", err)
	}
}

func TestSubscriberKeepsSessionAlive(t *testing.T) {
	l := refLab(t)
	now := time.Date(2015, 2, 8, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	m := NewManager(Config{Clock: clock, IdleTimeout: time.Minute, Debounce: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, _ := m.Open("u1", l.ID, l.Dialect)
	_, _, unsub, _ := s.Subscribe(0)
	defer unsub()

	mu.Lock()
	now = now.Add(time.Hour)
	mu.Unlock()
	m.Sweep()
	if m.Get(s.ID) == nil {
		t.Fatal("session with a live subscriber was evicted")
	}
}

func TestCloseAll(t *testing.T) {
	l := refLab(t)
	m := NewManager(Config{Debounce: -1, DraftInterval: -1})
	s, _ := m.Open("u1", l.ID, l.Dialect)
	m.CloseAll()
	if _, err := m.Open("u2", l.ID, l.Dialect); !errors.Is(err, ErrClosed) {
		t.Fatalf("Open after CloseAll err = %v, want ErrClosed", err)
	}
	if _, _, err := s.PushDraft(l.Reference); !errors.Is(err, ErrClosed) {
		t.Fatalf("PushDraft after CloseAll err = %v, want ErrClosed", err)
	}
	if _, _, _, err := s.Subscribe(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after CloseAll err = %v, want ErrClosed", err)
	}
}

// TestSlowSubscriberKicked: a subscriber that stops reading is kicked
// (channel closed) instead of blocking the analysis loop; the ring still
// holds the events for a Last-Event-ID resume.
func TestSlowSubscriberKicked(t *testing.T) {
	l := refLab(t)
	m := NewManager(Config{EventBuffer: 2, Debounce: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, _ := m.Open("u1", l.ID, l.Dialect)
	_, ch, unsub, _ := s.Subscribe(0)
	defer unsub()

	// Never read ch: each draft emits 2 events into a 2-slot channel.
	for i := 0; i < 4; i++ {
		if _, _, err := s.PushDraft(l.Reference + strings.Repeat("\n", i)); err != nil {
			t.Fatal(err)
		}
		poll(t, "draft analyzed", func() bool {
			evs := s.History(0)
			for _, ev := range evs {
				if dp, ok := ev.Data.(DiagnosticsPayload); ok && dp.Draft == int64(i+1) {
					return true
				}
			}
			return false
		})
	}
	poll(t, "slow subscriber kicked", func() bool {
		select {
		case _, open := <-ch:
			return !open
		default:
			return false
		}
	})
	if s.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d, want 0 after kick", s.Subscribers())
	}
}

// TestDevSessionSoak hammers the manager with concurrent sessions each
// pushing draft bursts while a reader drains events — the -race soak the
// CI matrix runs. Every session must end with its final draft analyzed.
func TestDevSessionSoak(t *testing.T) {
	l := refLab(t)
	m := NewManager(Config{DraftInterval: -1}) // default 20ms debounce
	defer m.CloseAll()

	const (
		sessions = 6
		drafts   = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", i)
			s, err := m.Open(user, l.ID, l.Dialect)
			if err != nil {
				errs <- err
				return
			}
			_, ch, unsub, err := s.Subscribe(0)
			if err != nil {
				errs <- err
				return
			}
			defer unsub()

			var last int64
			for d := 0; d < drafts; d++ {
				src := l.Reference + strings.Repeat("\n", d%4)
				seq, _, err := s.PushDraft(src)
				if err != nil {
					errs <- err
					return
				}
				last = seq
				time.Sleep(time.Millisecond)
			}
			// The final draft is never replaced, so it must be analyzed.
			deadline := time.After(10 * time.Second)
			for {
				select {
				case ev, open := <-ch:
					if !open {
						errs <- fmt.Errorf("session %s: channel closed early", s.ID)
						return
					}
					if cp, ok := ev.Data.(CompilePayload); ok && cp.Draft == last {
						return
					}
				case <-deadline:
					errs <- fmt.Errorf("session %s: final draft never analyzed", s.ID)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestIncrementalWorkSplit drives one session through an edit cycle and
// checks the diagnostics events report the incremental engine's work
// split: cold draft analyzes everything, a one-function edit re-analyzes
// only that function, and a revert to an already-analyzed source is
// served whole from the shared cache.
func TestIncrementalWorkSplit(t *testing.T) {
	const srcA = `__global__ void kA(float *in, float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    out[i] = in[i] * 2.0f;
  }
}

__global__ void kB(float *in, float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    out[i] = in[i] + 1.0f;
  }
}
`
	srcB := strings.Replace(srcA, "in[i] + 1.0f", "in[i] + 3.0f", 1)

	reg := metrics.NewRegistry()
	m := NewManager(Config{Debounce: -1, DraftInterval: -1, Metrics: reg})
	defer m.CloseAll()
	if got := reg.Counter("kernelcheck_incremental_runs"); got != 0 {
		t.Fatalf("kernelcheck_incremental_runs pre-registered at %v, want 0", got)
	}
	s, err := m.Open("u1", "lab", minicuda.DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	_, ch, unsub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()

	push := func(src string) DiagnosticsPayload {
		t.Helper()
		seq, _, err := s.PushDraft(src)
		if err != nil {
			t.Fatal(err)
		}
		return awaitDiagnostics(t, ch, seq)
	}

	if dp := push(srcA); dp.Analyzed != 2 || dp.Reused != 0 {
		t.Fatalf("cold draft: analyzed=%d reused=%d, want 2/0", dp.Analyzed, dp.Reused)
	}
	if dp := push(srcB); dp.Analyzed != 1 || dp.Reused != 1 {
		t.Fatalf("one-function edit: analyzed=%d reused=%d, want 1/1", dp.Analyzed, dp.Reused)
	}
	// Revert: srcA's entry already carries diagnostics in the shared
	// cache, so the draft is served without touching the engine.
	if dp := push(srcA); dp.Analyzed != 0 || dp.Reused != 2 {
		t.Fatalf("revert: analyzed=%d reused=%d, want 0/2", dp.Analyzed, dp.Reused)
	}

	if got := reg.Counter("kernelcheck_incremental_runs"); got != 3 {
		t.Errorf("kernelcheck_incremental_runs = %v, want 3", got)
	}
	if got := reg.Counter("kernelcheck_incremental_analyzed"); got != 3 {
		t.Errorf("kernelcheck_incremental_analyzed = %v, want 3", got)
	}
	if got := reg.Counter("kernelcheck_incremental_reused"); got != 3 {
		t.Errorf("kernelcheck_incremental_reused = %v, want 3", got)
	}
}
