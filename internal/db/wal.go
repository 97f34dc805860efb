package db

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"webgpu/internal/faultinject"
)

// WAL is a write-ahead log of committed entries, one JSON document per
// line. Attaching a WAL to a DB makes every subsequent commit durable;
// Replay reconstructs a DB from a log stream.
type WAL struct {
	mu     sync.Mutex
	w      *bufio.Writer
	n      int
	raw    io.Writer
	faults *faultinject.Registry
}

// NewWAL wraps a writer as a WAL sink.
func NewWAL(w io.Writer) *WAL {
	return &WAL{w: bufio.NewWriter(w), raw: w}
}

// SetFaults attaches a fault-injection registry so tests can fail the
// append path (a full disk, in production terms).
func (wal *WAL) SetFaults(f *faultinject.Registry) {
	wal.mu.Lock()
	defer wal.mu.Unlock()
	wal.faults = f
}

func (wal *WAL) append(e Entry) error {
	wal.mu.Lock()
	defer wal.mu.Unlock()
	if err := wal.faults.Fire(faultinject.PointWALAppend); err != nil {
		return fmt.Errorf("db: wal append: %w", err)
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := wal.w.Write(raw); err != nil {
		return err
	}
	if err := wal.w.WriteByte('\n'); err != nil {
		return err
	}
	wal.n++
	return wal.w.Flush()
}

// Entries reports how many entries have been appended.
func (wal *WAL) Entries() int {
	wal.mu.Lock()
	defer wal.mu.Unlock()
	return wal.n
}

// AttachWAL makes every subsequent commit append to the log.
func (d *DB) AttachWAL(wal *WAL) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wal = wal
}

// Replay applies a WAL stream to the database (used at startup). Entries
// with sequence numbers at or below the current sequence are skipped, so a
// snapshot followed by its WAL tail replays correctly.
func (d *DB) Replay(r io.Reader) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("db: wal line %d: %w", line, err)
		}
		if e.Seq <= d.seq {
			continue
		}
		d.applyLocked(e)
		d.seq = e.Seq
	}
	return sc.Err()
}

// Compact writes a snapshot of the current state and switches the WAL to
// a fresh sink, bounding log growth: the snapshot plus the new WAL tail
// reconstruct the database, and the old log can be discarded. This is the
// maintenance operation a long-lived deployment runs between offerings.
func (d *DB) Compact(snapshot io.Writer, newWAL *WAL) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := json.NewEncoder(snapshot).Encode(d.snapshotLocked()); err != nil {
		return fmt.Errorf("db: compact snapshot: %w", err)
	}
	d.wal = newWAL
	return nil
}

// snapshotDoc is the serialized form of a full-database snapshot.
type snapshotDoc struct {
	Seq    uint64                       `json:"seq"`
	Tables map[string]map[string]string `json:"tables"`
}

// Snapshot writes a point-in-time copy of the whole database; replaying
// the WAL tail on top of a snapshot reconstructs the latest state.
func (d *DB) Snapshot(w io.Writer) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return json.NewEncoder(w).Encode(d.snapshotLocked())
}

// snapshotLocked copies the whole database into its serialized form; the
// caller holds d.mu.
func (d *DB) snapshotLocked() snapshotDoc {
	doc := snapshotDoc{Seq: d.seq, Tables: map[string]map[string]string{}}
	for name, t := range d.tables {
		rows := make(map[string]string, len(t.rows))
		for k, v := range t.rows {
			rows[k] = string(v)
		}
		doc.Tables[name] = rows
	}
	return doc
}

// LoadSnapshot replaces the database contents with a snapshot.
func (d *DB) LoadSnapshot(r io.Reader) error {
	var doc snapshotDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("db: snapshot: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tables = map[string]*table{}
	for name, rows := range doc.Tables {
		t := &table{rows: make(map[string][]byte, len(rows)), keys: make([]string, 0, len(rows))}
		for k, v := range rows {
			t.rows[k] = []byte(v)
			t.keys = append(t.keys, k)
		}
		sort.Strings(t.keys)
		d.tables[name] = t
	}
	d.seq = doc.Seq
	return nil
}
