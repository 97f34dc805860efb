package db

import (
	"bytes"
	"fmt"
	"testing"
)

type benchRec struct {
	Name  string `json:"name"`
	Role  string `json:"role"`
	Count int    `json:"count"`
}

func BenchmarkPut(b *testing.B) {
	d := New()
	for i := 0; i < b.N; i++ {
		err := d.Update(func(tx *Tx) error {
			return tx.Put("t", fmt.Sprintf("k%d", i%4096), benchRec{Name: "x", Count: i})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	d := New()
	_ = d.Update(func(tx *Tx) error {
		for i := 0; i < 4096; i++ {
			if err := tx.Put("t", fmt.Sprintf("k%d", i), benchRec{Name: "x", Count: i}); err != nil {
				return err
			}
		}
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r benchRec
		err := d.View(func(tx *Tx) error {
			return tx.Get("t", fmt.Sprintf("k%d", i%4096), &r)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// historyTable10k fills a history-shaped table: 100 users × 4 labs × 25
// revisions, keyed user|lab|rev like the web tier's.
func historyTable10k(b *testing.B) *DB {
	d := New()
	err := d.Update(func(tx *Tx) error {
		for u := 0; u < 100; u++ {
			for l := 0; l < 4; l++ {
				for rev := 1; rev <= 25; rev++ {
					key := fmt.Sprintf("user-%06d|lab-%d|%08d", u, l, rev)
					if err := tx.Put("history", key, benchRec{Name: "x", Count: rev}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkScanPrefix10k is one student's History page: a 25-key range
// out of 10 000 rows.
func BenchmarkScanPrefix10k(b *testing.B) {
	d := historyTable10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefix := fmt.Sprintf("user-%06d|lab-%d|", i%100, i%4)
		n := 0
		_ = d.View(func(tx *Tx) error {
			tx.ScanPrefix("history", prefix, func(string) bool { n++; return true })
			return nil
		})
		if n != 25 {
			b.Fatalf("range of %s = %d keys", prefix, n)
		}
	}
}

// BenchmarkKeys10k is the cost of listing a whole 10 000-row table (the
// benchmark's db.keys_us replay).
func BenchmarkKeys10k(b *testing.B) {
	d := historyTable10k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.View(func(tx *Tx) error {
			if n := len(tx.Keys("history")); n != 10_000 {
				b.Fatalf("keys = %d", n)
			}
			return nil
		})
	}
}

func BenchmarkWALAppendAndReplay(b *testing.B) {
	b.Run("append", func(b *testing.B) {
		var buf bytes.Buffer
		d := New()
		d.AttachWAL(NewWAL(&buf))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := d.Update(func(tx *Tx) error {
				return tx.Put("t", fmt.Sprintf("k%d", i%1024), benchRec{Count: i})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay-1k", func(b *testing.B) {
		var buf bytes.Buffer
		d := New()
		d.AttachWAL(NewWAL(&buf))
		for i := 0; i < 1000; i++ {
			_ = d.Update(func(tx *Tx) error {
				return tx.Put("t", fmt.Sprintf("k%d", i), benchRec{Count: i})
			})
		}
		log := buf.Bytes()
		b.SetBytes(int64(len(log)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fresh := New()
			if err := fresh.Replay(bytes.NewReader(log)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkReplication(b *testing.B) {
	primary := New()
	rep := NewReplica(primary)
	defer rep.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = primary.Update(func(tx *Tx) error {
			return tx.Put("t", fmt.Sprintf("k%d", i%1024), benchRec{Count: i})
		})
	}
	b.StopTimer()
	rep.WaitCaughtUp(0)
}
