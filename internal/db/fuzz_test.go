package db

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to Replay and, separately, to
// LoadSnapshot, each on a fresh DB. Neither panics; whatever either one
// accepts holds only rows Put could have stored (valid JSON objects), and
// a Snapshot of it loads back into the same keys and rows. The seeds under
// testdata/fuzz are WAL lines whose value is an array, a string, an
// explicit null and an object holding invalid UTF-8 (which a snapshot
// would carry back as U+FFFD), a snapshot row that is not JSON, a valid
// three-line WAL and one whose last line is torn.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, load := range map[string]func(*DB) error{
			"Replay":       func(d *DB) error { return d.Replay(bytes.NewReader(data)) },
			"LoadSnapshot": func(d *DB) error { return d.LoadSnapshot(bytes.NewReader(data)) },
		} {
			d := New()
			if load(d) != nil {
				continue
			}
			got := dumpRows(t, d)
			for table, rows := range got {
				for i := 1; i < len(rows); i += 2 {
					if row := rows[i]; !json.Valid([]byte(row)) || row[0] != '{' {
						t.Fatalf("%s stored %s/%s = %q, not a JSON object", name, table, rows[i-1], row)
					}
				}
			}
			var snap bytes.Buffer
			if err := d.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			back := New()
			if err := back.LoadSnapshot(&snap); err != nil {
				t.Fatalf("%s: the snapshot of what it stored does not load: %v", name, err)
			}
			if again := dumpRows(t, back); !reflect.DeepEqual(again, got) {
				t.Fatalf("%s: a snapshot round trip read\n%q\nwant\n%q", name, again, got)
			}
		}
	})
}

// dumpRows reads every table of d as Keys lists it: key, then the row as
// AppendRow serves it.
func dumpRows(t *testing.T, d *DB) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	_ = d.View(func(tx *Tx) error {
		for table := range d.tables {
			rows := []string{}
			for _, k := range tx.Keys(table) {
				row, err := tx.AppendRow(nil, table, k)
				if err != nil {
					t.Fatalf("AppendRow(%s, %s) of a listed key: %v", table, k, err)
				}
				rows = append(rows, k, string(row))
			}
			out[table] = rows
		}
		return nil
	})
	return out
}
