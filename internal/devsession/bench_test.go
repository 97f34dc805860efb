package devsession

import "testing"

// BenchmarkWarmDraftCheck measures one warm incremental draft check: the
// student re-pushes source already in the program cache, and the loop
// serves compile + diagnostics as pure cache hits. This is the steady-state
// cost of the live development loop (the budget
// TestWarmIncrementalLatencyBudget asserts).
func BenchmarkWarmDraftCheck(b *testing.B) {
	l := refLab(b)
	m := NewManager(Config{Debounce: -1, DraftInterval: -1})
	defer m.CloseAll()
	s, err := m.Open("bench", l.ID, l.Dialect)
	if err != nil {
		b.Fatal(err)
	}
	_, ch, unsub, err := s.Subscribe(0)
	if err != nil {
		b.Fatal(err)
	}
	defer unsub()

	await := func(draft int64) {
		for ev := range ch {
			if dp, ok := ev.Data.(DiagnosticsPayload); ok && dp.Draft == draft {
				return
			}
		}
		b.Fatal("event channel closed")
	}

	// Warm the cache: the first draft compiles and analyzes for real.
	seq, _, err := s.PushDraft(l.Reference)
	if err != nil {
		b.Fatal(err)
	}
	await(seq)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, _, err := s.PushDraft(l.Reference)
		if err != nil {
			b.Fatal(err)
		}
		await(seq)
	}
}
