package clock

import (
	"fmt"
	"testing"
	"time"
)

// take is one Take call of a TestLimiter row and its verdict.
type take struct {
	at   time.Duration // since the row's start
	key  string
	wait time.Duration
}

// TestLimiter drives each row's takes on a manual clock and checks every
// verdict: 0 for a token taken, else the wait the limiter reports. Fill
// keys take one token each at the start, before the takes.
func TestLimiter(t *testing.T) {
	// d7 is EXPERIMENTS.md's D7 client: a submit every second for a minute
	// against a 10 s interval. Integer time admits on each exact 10 s
	// boundary: 6 admitted, 54 rejected.
	var d7 []take
	for i := 0; i < 60; i++ {
		d7 = append(d7, take{time.Duration(i) * time.Second, "abuser", time.Duration((10-i%10)%10) * time.Second})
	}
	s, ms := time.Second, time.Millisecond
	rows := []struct {
		name     string
		burst    int
		interval time.Duration
		fill     int
		takes    []take
		sweeps   int // sweeps run, at most
		keys     int // keys held at the end
	}{
		{name: "submit interval: resubmit waits, others do not", burst: 1, interval: 10 * s, takes: []take{
			{0, "alice", 0}, {0, "alice", 10 * s}, {0, "bob", 0}, {3 * s, "alice", 7 * s},
			{10 * s, "alice", 0}, {11 * s, "bob", 0},
		}, keys: 2},
		{name: "submit interval: D7's minute", burst: 1, interval: 10 * s, takes: d7, keys: 1},
		{name: "burst 2 per minute: own bucket per key, one token per interval", burst: 2, interval: time.Minute, takes: []take{
			{0, "alice", 0}, {0, "alice", 0}, {0, "alice", time.Minute}, {0, "bob", 0},
			{time.Minute, "alice", 0}, {time.Minute, "alice", time.Minute},
		}, keys: 2},
		{name: "burst 3 per second: refills to burst and no further", burst: 3, interval: s, takes: []take{
			{0, "x", 0}, {0, "x", 0}, {0, "x", 0}, {0, "x", s},
			{500 * ms, "x", 500 * ms}, {s, "x", 0}, {s, "x", s},
			{time.Hour, "x", 0}, {time.Hour, "x", 0}, {time.Hour, "x", 0}, {time.Hour, "x", s},
		}, keys: 1},
		{name: "devsession drafts: burst 2 per 100 ms", burst: 2, interval: 100 * ms, takes: []take{
			{0, "u1", 0}, {0, "u1", 0}, {0, "u1", 100 * ms}, {30 * ms, "u1", 70 * ms},
			{time.Second, "u1", 0},
		}, keys: 1},
		{name: "devsession drafts: default burst 30 per 50 ms", burst: 30, interval: 50 * ms, takes: append(
			repeat(30, take{0, "u1", 0}),
			take{0, "u1", 50 * ms}, take{25 * ms, "u1", 25 * ms}, take{50 * ms, "u1", 0},
			take{50 * ms, "u1", 50 * ms}, take{175 * ms, "u1", 0}, take{175 * ms, "u1", 0},
			take{175 * ms, "u1", 25 * ms}, take{1525 * ms, "u1", 0}),
			keys: 1},
		{name: "a sweep drops full keys and never one that is not", burst: 1, interval: 10 * s, fill: 50000, takes: []take{
			{7 * s, "live", 0}, {10 * s, "late", 0}, {10 * s, "live", 7 * s}, {10 * s, "k00000", 0},
		}, sweeps: 2, keys: 3},
		{name: "a sweep keeps a key short of its burst", burst: 2, interval: 100 * ms, fill: 50000, takes: []take{
			{150 * ms, "live", 0}, {150 * ms, "live", 0}, {200 * ms, "late", 0},
			{200 * ms, "live", 50 * ms}, {250 * ms, "live", 0},
		}, sweeps: 2, keys: 2},
		{name: "1 000 new keys past the bound inside one interval sweep once", burst: 1, interval: 10 * s, fill: maxKeys,
			takes: fresh(1000, time.Second), sweeps: 1, keys: maxKeys + 1000},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			start := time.Unix(1000, 0)
			clk := NewManual(start)
			l := NewLimiter(row.burst, row.interval, clk)
			for i := 0; i < row.fill; i++ {
				if w := l.Take(fmt.Sprintf("k%05d", i)); w != 0 {
					t.Fatalf("fill key %d waits %v", i, w)
				}
			}
			for i, tk := range row.takes {
				clk.Advance(start.Add(tk.at).Sub(clk.Now()))
				if got := l.Take(tk.key); got != tk.wait {
					t.Fatalf("take %d (%s at %v) = %v, want %v", i, tk.key, tk.at, got, tk.wait)
				}
			}
			if l.sweeps > row.sweeps {
				t.Errorf("%d sweeps, want at most %d", l.sweeps, row.sweeps)
			}
			if got := l.Len(); got != row.keys {
				t.Errorf("holds %d keys, want %d", got, row.keys)
			}
		})
	}

	if l := NewLimiter(0, time.Second, Real); l != nil || l.Take("x") != 0 || l.Len() != 0 {
		t.Fatal("a zero burst must give the nil limiter, which admits everything")
	}
}

func repeat(n int, tk take) []take {
	out := make([]take, n)
	for i := range out {
		out[i] = tk
	}
	return out
}

// fresh is n takes of never-seen keys at one instant, each admitted.
func fresh(n int, at time.Duration) []take {
	out := make([]take, n)
	for i := range out {
		out[i] = take{at, fmt.Sprintf("new%04d", i), 0}
	}
	return out
}
