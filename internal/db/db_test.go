package db

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

type user struct {
	Name  string `json:"name"`
	Email string `json:"email"`
	Role  string `json:"role"`
}

func TestPutGetDelete(t *testing.T) {
	d := New()
	err := d.Update(func(tx *Tx) error {
		return tx.Put("users", "u1", user{Name: "Ada", Email: "ada@example.edu", Role: "student"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var got user
	if err := d.View(func(tx *Tx) error { return tx.Get("users", "u1", &got) }); err != nil {
		t.Fatal(err)
	}
	if got.Name != "Ada" {
		t.Errorf("got %+v", got)
	}
	if err := d.Update(func(tx *Tx) error { return tx.Delete("users", "u1") }); err != nil {
		t.Fatal(err)
	}
	err = d.View(func(tx *Tx) error { return tx.Get("users", "u1", &got) })
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("after delete: %v", err)
	}
}

func TestTxSeesOwnWrites(t *testing.T) {
	d := New()
	err := d.Update(func(tx *Tx) error {
		if err := tx.Put("t", "k", user{Name: "x"}); err != nil {
			return err
		}
		var u user
		if err := tx.Get("t", "k", &u); err != nil {
			return fmt.Errorf("own write invisible: %w", err)
		}
		if err := tx.Delete("t", "k"); err != nil {
			return err
		}
		if tx.Exists("t", "k") {
			return errors.New("own delete invisible")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRollbackOnError(t *testing.T) {
	d := New()
	boom := errors.New("boom")
	err := d.Update(func(tx *Tx) error {
		_ = tx.Put("t", "k", user{Name: "x"})
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := d.View(func(tx *Tx) error {
		if tx.Exists("t", "k") {
			return errors.New("aborted write visible")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestKeysAndScan(t *testing.T) {
	d := New()
	_ = d.Update(func(tx *Tx) error {
		for _, k := range []string{"c", "a", "b"} {
			if err := tx.Put("t", k, user{Name: k}); err != nil {
				return err
			}
		}
		return nil
	})
	_ = d.View(func(tx *Tx) error {
		keys := tx.Keys("t")
		if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
			t.Errorf("keys = %v", keys)
		}
		if tx.Count("t") != 3 {
			t.Errorf("count = %d", tx.Count("t"))
		}
		n := 0
		tx.Scan("t", func(k string, raw json.RawMessage) bool { n++; return n < 2 })
		if n != 2 {
			t.Errorf("scan early-stop visited %d", n)
		}
		return nil
	})
}

func TestNonObjectRejected(t *testing.T) {
	d := New()
	err := d.Update(func(tx *Tx) error { return tx.Put("t", "k", 42) })
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("err = %v", err)
	}
}

func TestClosedDB(t *testing.T) {
	d := New()
	d.Close()
	if err := d.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("update on closed = %v", err)
	}
	if err := d.View(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("view on closed = %v", err)
	}
}

func TestWALReplayEquivalence(t *testing.T) {
	var log bytes.Buffer
	d := New()
	d.AttachWAL(NewWAL(&log))
	for i := 0; i < 20; i++ {
		i := i
		_ = d.Update(func(tx *Tx) error {
			return tx.Put("t", fmt.Sprintf("k%02d", i), user{Name: fmt.Sprintf("u%d", i)})
		})
	}
	_ = d.Update(func(tx *Tx) error { return tx.Delete("t", "k05") })

	restored := New()
	if err := restored.Replay(bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Seq() != d.Seq() {
		t.Errorf("seq %d != %d", restored.Seq(), d.Seq())
	}
	_ = restored.View(func(tx *Tx) error {
		if tx.Count("t") != 19 {
			t.Errorf("count = %d", tx.Count("t"))
		}
		if tx.Exists("t", "k05") {
			t.Error("deleted key survived replay")
		}
		return nil
	})
}

func TestSnapshotPlusWALTail(t *testing.T) {
	var log bytes.Buffer
	d := New()
	d.AttachWAL(NewWAL(&log))
	_ = d.Update(func(tx *Tx) error { return tx.Put("t", "a", user{Name: "1"}) })

	var snap bytes.Buffer
	if err := d.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	_ = d.Update(func(tx *Tx) error { return tx.Put("t", "b", user{Name: "2"}) })

	restored := New()
	if err := restored.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Full WAL replay skips entries already in the snapshot.
	if err := restored.Replay(bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	_ = restored.View(func(tx *Tx) error {
		if !tx.Exists("t", "a") || !tx.Exists("t", "b") {
			t.Errorf("keys = %v", tx.Keys("t"))
		}
		return nil
	})
}

// Property: a random sequence of puts and deletes, replayed through the
// WAL, reconstructs exactly the same table contents.
func TestWALReplayProperty(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Del bool
	}) bool {
		var log bytes.Buffer
		d := New()
		d.AttachWAL(NewWAL(&log))
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op.Key%16)
			if op.Del {
				_ = d.Update(func(tx *Tx) error { return tx.Delete("t", key) })
			} else {
				v := user{Name: fmt.Sprintf("v%d", i)}
				_ = d.Update(func(tx *Tx) error { return tx.Put("t", key, v) })
			}
		}
		restored := New()
		if err := restored.Replay(bytes.NewReader(log.Bytes())); err != nil {
			return false
		}
		var a, b []string
		_ = d.View(func(tx *Tx) error { a = tx.Keys("t"); return nil })
		_ = restored.View(func(tx *Tx) error { b = tx.Keys("t"); return nil })
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
			var ua, ub user
			_ = d.View(func(tx *Tx) error { return tx.Get("t", a[i], &ua) })
			_ = restored.View(func(tx *Tx) error { return tx.Get("t", b[i], &ub) })
			if ua != ub {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCompactBoundsLogGrowth(t *testing.T) {
	var oldLog bytes.Buffer
	d := New()
	d.AttachWAL(NewWAL(&oldLog))
	for i := 0; i < 50; i++ {
		i := i
		_ = d.Update(func(tx *Tx) error {
			return tx.Put("t", fmt.Sprintf("k%d", i), user{Name: "x"})
		})
	}

	var snap bytes.Buffer
	var newLog bytes.Buffer
	newWAL := NewWAL(&newLog)
	if err := d.Compact(&snap, newWAL); err != nil {
		t.Fatal(err)
	}
	// Post-compaction writes go only to the new log.
	_ = d.Update(func(tx *Tx) error { return tx.Put("t", "after", user{Name: "y"}) })
	if newWAL.Entries() != 1 {
		t.Errorf("new wal entries = %d", newWAL.Entries())
	}
	// Snapshot + new log reconstruct everything; the old log is obsolete.
	restored := New()
	if err := restored.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := restored.Replay(bytes.NewReader(newLog.Bytes())); err != nil {
		t.Fatal(err)
	}
	_ = restored.View(func(tx *Tx) error {
		if tx.Count("t") != 51 {
			t.Errorf("restored count = %d, want 51", tx.Count("t"))
		}
		if !tx.Exists("t", "after") {
			t.Error("post-compaction write lost")
		}
		return nil
	})
}

func TestConcurrentUpdates(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = d.Update(func(tx *Tx) error {
					return tx.Put("t", fmt.Sprintf("g%d-i%d", g, i), user{Name: "x"})
				})
			}
		}(g)
	}
	wg.Wait()
	_ = d.View(func(tx *Tx) error {
		if tx.Count("t") != 400 {
			t.Errorf("count = %d", tx.Count("t"))
		}
		return nil
	})
	if d.Seq() != 400 {
		t.Errorf("seq = %d", d.Seq())
	}
}

func TestReplicaStreams(t *testing.T) {
	primary := New()
	rep := NewReplica(primary)
	defer rep.Stop()
	for i := 0; i < 50; i++ {
		i := i
		_ = primary.Update(func(tx *Tx) error {
			return tx.Put("t", fmt.Sprintf("k%d", i), user{Name: "x"})
		})
	}
	if !rep.WaitCaughtUp(2 * time.Second) {
		t.Fatalf("replica lag = %d", rep.Lag())
	}
	_ = rep.View(func(tx *Tx) error {
		if tx.Count("t") != 50 {
			t.Errorf("replica count = %d", tx.Count("t"))
		}
		return nil
	})
}

func TestReplicaSeesPreexistingData(t *testing.T) {
	primary := New()
	_ = primary.Update(func(tx *Tx) error { return tx.Put("t", "old", user{Name: "x"}) })
	rep := NewReplica(primary)
	defer rep.Stop()
	if !rep.WaitCaughtUp(time.Second) {
		t.Fatal("lagging")
	}
	_ = rep.View(func(tx *Tx) error {
		if !tx.Exists("t", "old") {
			t.Error("initial snapshot missing data")
		}
		return nil
	})
}

func TestReplicaPromote(t *testing.T) {
	primary := New()
	_ = primary.Update(func(tx *Tx) error { return tx.Put("t", "k", user{Name: "x"}) })
	rep := NewReplica(primary)
	if !rep.WaitCaughtUp(time.Second) {
		t.Fatal("lagging")
	}
	promoted := rep.Promote()
	// The promoted DB accepts writes.
	if err := promoted.Update(func(tx *Tx) error {
		return tx.Put("t", "k2", user{Name: "y"})
	}); err != nil {
		t.Fatal(err)
	}
	_ = promoted.View(func(tx *Tx) error {
		if !tx.Exists("t", "k") || !tx.Exists("t", "k2") {
			t.Error("promoted DB missing data")
		}
		return nil
	})
}
