package db

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// model is the brute-force reference of the read path: plain maps, every
// read a full walk and a sort.
type model map[string]map[string]string // table -> key -> JSON

func (m model) clone() model {
	c := model{}
	for name, rows := range m {
		c[name] = map[string]string{}
		for k, v := range rows {
			c[name][k] = v
		}
	}
	return c
}

func (m model) keys(table, prefix string) []string {
	keys := []string{}
	for k := range m[table] {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

var (
	propTables   = []string{"history", "attempts"}
	propPrefixes = []string{"", "u", "u1|", "u1|l2|", "u2|l0|03", "u3", "zzz", "u1|l2}"}
	propRoles    = []string{"student", "instructor", "ta"}
)

// checkReads asserts that every read of tx equals the model: visible is
// what the transaction should see (committed plus its own writes).
func checkReads(t *testing.T, where string, tx *Tx, visible model) {
	t.Helper()
	for _, table := range propTables {
		want := visible.keys(table, "")
		if got := tx.Keys(table); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Keys(%s) = %v, want %v", where, table, got, want)
		}
		if got := tx.Count(table); got != len(want) {
			t.Fatalf("%s: Count(%s) = %d, want %d", where, table, got, len(want))
		}
		scanned := []string{}
		tx.Scan(table, func(k string, raw json.RawMessage) bool {
			if string(raw) != visible[table][k] {
				t.Fatalf("%s: Scan(%s) %s = %s, want %s", where, table, k, raw, visible[table][k])
			}
			scanned = append(scanned, k)
			return true
		})
		if !reflect.DeepEqual(scanned, want) {
			t.Fatalf("%s: Scan(%s) visited %v, want %v", where, table, scanned, want)
		}
		// Every key the test can generate, through the undecoded accessor:
		// present rows (committed, or written by this transaction) come
		// back appended to the caller's bytes, absent ones (never written,
		// or deleted by this transaction) leave the buffer alone.
		for u := 0; u < 4; u++ {
			for l := 0; l < 3; l++ {
				for n := 0; n < 6; n++ {
					k := fmt.Sprintf("u%d|l%d|%02d", u, l, n)
					row, present := visible[table][k]
					got, err := tx.AppendRow([]byte("["), table, k)
					if present && (err != nil || string(got) != "["+row) {
						t.Fatalf("%s: AppendRow(%s, %s) = %s, %v; want [%s", where, table, k, got, err, row)
					}
					if !present && (!errors.Is(err, ErrNotFound) || string(got) != "[") {
						t.Fatalf("%s: AppendRow(%s, %s) of an absent row = %s, %v", where, table, k, got, err)
					}
					if tx.Exists(table, k) != present {
						t.Fatalf("%s: Exists(%s, %s) = %v", where, table, k, !present)
					}
				}
			}
		}
		for _, prefix := range propPrefixes {
			got := []string{}
			tx.ScanPrefix(table, prefix, func(k string) bool {
				got = append(got, k)
				return true
			})
			if want := visible.keys(table, prefix); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ScanPrefix(%s, %q) = %v, want %v", where, table, prefix, got, want)
			}
		}
	}
	// ScanPrefix stops when asked to.
	if all := visible.keys("history", ""); len(all) > 1 {
		n := 0
		tx.ScanPrefix("history", "", func(string) bool { n++; return false })
		if n != 1 {
			t.Fatalf("%s: ScanPrefix visited %d keys after fn returned false", where, n)
		}
	}
}

// TestReadPathMatchesModel drives random interleavings of transactions
// (committed and rolled back), snapshot round trips and WAL reopens, and
// after every step compares Keys, Scan, Count, ScanPrefix, AppendRow and
// Exists — inside transactions with uncommitted writes and after commit —
// with the model.
func TestReadPathMatchesModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var wal bytes.Buffer
			open := func() *DB {
				d := New()
				if err := d.Replay(bytes.NewReader(wal.Bytes())); err != nil {
					t.Fatal(err)
				}
				d.AttachWAL(NewWAL(&wal))
				return d
			}
			d := open()
			committed := model{}
			deletedInTx := 0 // committed rows a transaction deleted, then read
			randKey := func() string {
				return fmt.Sprintf("u%d|l%d|%02d", rng.Intn(4), rng.Intn(3), rng.Intn(6))
			}
			for step := 0; step < 200; step++ {
				where := fmt.Sprintf("seed %d step %d", seed, step)
				switch op := rng.Intn(8); {
				case op < 6: // a transaction of a few writes, committed or not
					pendingModel := committed.clone()
					rollback := errors.New("rollback")
					commit := rng.Intn(4) != 0
					err := d.Update(func(tx *Tx) error {
						for i, n := 0, 1+rng.Intn(5); i < n; i++ {
							table, key := propTables[rng.Intn(2)], randKey()
							if rng.Intn(3) == 0 {
								if err := tx.Delete(table, key); err != nil {
									return err
								}
								if _, wasThere := committed[table][key]; wasThere {
									deletedInTx++
								}
								delete(pendingModel[table], key)
							} else {
								rec := map[string]interface{}{"role": propRoles[rng.Intn(3)], "n": step*10 + i}
								if err := tx.Put(table, key, rec); err != nil {
									return err
								}
								raw, _ := json.Marshal(rec)
								if pendingModel[table] == nil {
									pendingModel[table] = map[string]string{}
								}
								pendingModel[table][key] = string(raw)
							}
							checkReads(t, where+" in tx", tx, pendingModel)
						}
						if !commit {
							return rollback
						}
						return nil
					})
					if commit && err != nil || !commit && !errors.Is(err, rollback) {
						t.Fatalf("%s: update: %v", where, err)
					}
					if commit {
						committed = pendingModel
					}
				case op < 7: // snapshot round trip in place
					var snap bytes.Buffer
					if err := d.Snapshot(&snap); err != nil {
						t.Fatal(err)
					}
					if err := d.LoadSnapshot(&snap); err != nil {
						t.Fatal(err)
					}
				default: // crash and reopen from the WAL
					d.Close()
					d = open()
				}
				if err := d.View(func(tx *Tx) error {
					checkReads(t, where, tx, committed)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if deletedInTx < 10 {
				t.Fatalf("only %d reads of a committed row the transaction had deleted", deletedInTx)
			}
		})
	}
}

// TestReadersCannotCorruptStoredRows: committed bytes are shared by the
// table and the WAL entry, so everything handed to a reader must be the
// reader's own copy.
func TestReadersCannotCorruptStoredRows(t *testing.T) {
	d := New()
	if err := d.Update(func(tx *Tx) error { return tx.Put("t", "k", user{Name: "Ada"}) }); err != nil {
		t.Fatal(err)
	}
	scribble := func(raw json.RawMessage) {
		for i := range raw {
			raw[i] = 'X'
		}
	}
	_ = d.View(func(tx *Tx) error {
		var raw json.RawMessage
		if err := tx.Get("t", "k", &raw); err != nil {
			t.Fatal(err)
		}
		scribble(raw)
		tx.Scan("t", func(_ string, raw json.RawMessage) bool {
			scribble(raw)
			return true
		})
		row, err := tx.AppendRow(nil, "t", "k")
		if err != nil {
			t.Fatal(err)
		}
		scribble(row)
		// Appending to a buffer with room to spare writes into the
		// caller's array, never the store's.
		row, _ = tx.AppendRow(make([]byte, 1, 256), "t", "k")
		scribble(row)
		return nil
	})
	var got user
	if err := d.View(func(tx *Tx) error { return tx.Get("t", "k", &got) }); err != nil || got.Name != "Ada" {
		t.Errorf("row after a reader scribbled on its copy = %+v, %v", got, err)
	}
}
