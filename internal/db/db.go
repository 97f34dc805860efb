// Package db is the embedded transactional record store behind WebGPU's
// web tier, standing in for the MySQL (v1) and Aurora/replicated (v2)
// databases of §III-B and §VI-A. It stores JSON-encoded records in named
// tables, provides serializable read-write transactions, ordered key and
// prefix-range scans, write-ahead-log persistence with snapshots, and
// streaming replication to read replicas. Sorted keys are the only index:
// a lookup by anything but the primary key is a row in another table whose
// key is the value looked up, written in the record's transaction. A row
// is read decoded (Tx.Get) or as the bytes it was committed as
// (Tx.AppendRow, a copy onto the caller's buffer): a response that lists
// rows serves them without decoding one.
package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors.
var (
	ErrNotFound  = errors.New("db: record not found")
	ErrClosed    = errors.New("db: database closed")
	ErrBadRecord = errors.New("db: record is not a JSON object")
)

// Entry is one committed mutation, the unit of the WAL and of replication.
type Entry struct {
	Seq   uint64          `json:"seq"`
	Table string          `json:"table"`
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value,omitempty"` // nil = delete
}

type table struct {
	// rows holds the committed bytes of each record. A committed value is
	// never written again (an update installs a new slice), which is what
	// lets the WAL, subscribers and replicas share it without copying.
	rows map[string][]byte
	// keys is the sorted key set of rows, so ordered reads and prefix
	// ranges need no per-call sort.
	keys []string
}

// insertKey adds a key not yet in the table. Monotonic IDs, the common
// case, append; anything else costs a binary search and one memmove.
func (t *table) insertKey(key string) {
	n := len(t.keys)
	if n == 0 || t.keys[n-1] < key {
		t.keys = append(t.keys, key)
		return
	}
	i := sort.SearchStrings(t.keys, key)
	t.keys = append(t.keys, "")
	copy(t.keys[i+1:], t.keys[i:])
	t.keys[i] = key
}

func (t *table) removeKey(key string) {
	i := sort.SearchStrings(t.keys, key)
	t.keys = append(t.keys[:i], t.keys[i+1:]...)
}

// prefixRange returns the committed keys that start with prefix, found by
// binary search: O(log n) plus nothing per match (the result aliases
// t.keys and is only valid while the database lock is held).
func (t *table) prefixRange(prefix string) []string {
	lo := sort.SearchStrings(t.keys, prefix)
	n := sort.Search(len(t.keys)-lo, func(i int) bool {
		return !strings.HasPrefix(t.keys[lo+i], prefix)
	})
	return t.keys[lo : lo+n]
}

// DB is the store. All methods are safe for concurrent use; writes are
// serialized (single writer), reads run under a shared lock.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	seq    uint64
	closed bool

	wal *WAL

	subMu sync.Mutex
	subs  []chan Entry
}

// New creates an empty in-memory database.
func New() *DB {
	return &DB{tables: map[string]*table{}}
}

// Close marks the database closed; in-flight readers finish, new
// transactions fail.
func (d *DB) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.subMu.Lock()
	for _, ch := range d.subs {
		close(ch)
	}
	d.subs = nil
	d.subMu.Unlock()
}

// Seq returns the last committed sequence number.
func (d *DB) Seq() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.seq
}

func (d *DB) tableLocked(name string) *table {
	t, ok := d.tables[name]
	if !ok {
		t = &table{rows: map[string][]byte{}}
		d.tables[name] = t
	}
	return t
}

// ---- Transactions ------------------------------------------------------------

// Tx is a transaction handle. Read methods see committed state plus the
// transaction's own writes; mutations are buffered until commit.
type Tx struct {
	db       *DB
	writable bool
	writes   map[string]map[string]json.RawMessage // table -> key -> value (nil=delete)
	order    []entryKey
}

type entryKey struct{ table, key string }

// View runs fn in a read-only transaction.
func (d *DB) View(fn func(tx *Tx) error) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	return fn(&Tx{db: d})
}

// Update runs fn in a writable transaction; if fn returns nil the buffered
// writes commit atomically (and reach the WAL and replicas).
func (d *DB) Update(fn func(tx *Tx) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	tx := &Tx{db: d, writable: true, writes: map[string]map[string]json.RawMessage{}}
	if err := fn(tx); err != nil {
		return err
	}
	return d.commitLocked(tx)
}

func (d *DB) commitLocked(tx *Tx) error {
	var entries []Entry
	for _, ek := range tx.order {
		val := tx.writes[ek.table][ek.key]
		d.seq++
		e := Entry{Seq: d.seq, Table: ek.table, Key: ek.key, Value: val}
		d.applyLocked(e)
		entries = append(entries, e)
	}
	if d.wal != nil {
		for _, e := range entries {
			if err := d.wal.append(e); err != nil {
				return fmt.Errorf("db: wal append: %w", err)
			}
		}
	}
	if len(entries) > 0 {
		d.subMu.Lock()
		for _, ch := range d.subs {
			for _, e := range entries {
				select {
				case ch <- e:
				default: // slow replica: drop; it will resync from snapshot
				}
			}
		}
		d.subMu.Unlock()
	}
	return nil
}

// applyLocked installs one committed entry. It keeps e.Value rather than
// a copy: the bytes were marshaled (Put) or decoded (Replay) for this
// entry alone and nothing writes to them afterwards, so the primary, its
// subscribers and its replicas all hold the same slice.
func (d *DB) applyLocked(e Entry) {
	t := d.tableLocked(e.Table)
	_, existed := t.rows[e.Key]
	if e.Value == nil {
		if existed {
			delete(t.rows, e.Key)
			t.removeKey(e.Key)
		}
		return
	}
	t.rows[e.Key] = e.Value
	if !existed {
		t.insertKey(e.Key)
	}
}

// Put stores value (JSON-marshaled) under table/key.
func (tx *Tx) Put(tableName, key string, value interface{}) error {
	if !tx.writable {
		return errors.New("db: put in read-only transaction")
	}
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("db: marshal: %w", err)
	}
	if len(raw) == 0 || raw[0] != '{' {
		return ErrBadRecord
	}
	tx.buffer(tableName, key, raw)
	return nil
}

// Delete removes table/key (no error if absent, like SQL DELETE).
func (tx *Tx) Delete(tableName, key string) error {
	if !tx.writable {
		return errors.New("db: delete in read-only transaction")
	}
	tx.buffer(tableName, key, nil)
	return nil
}

func (tx *Tx) buffer(tableName, key string, raw json.RawMessage) {
	t, ok := tx.writes[tableName]
	if !ok {
		t = map[string]json.RawMessage{}
		tx.writes[tableName] = t
	}
	if _, seen := t[key]; !seen {
		tx.order = append(tx.order, entryKey{tableName, key})
	} else {
		// Re-write of the same key within the tx: keep original order slot.
		for i, ek := range tx.order {
			if ek.table == tableName && ek.key == key {
				tx.order = append(tx.order[:i], tx.order[i+1:]...)
				break
			}
		}
		tx.order = append(tx.order, entryKey{tableName, key})
	}
	t[key] = raw
}

// row returns the bytes stored under table/key as the transaction sees
// them: its own buffered write, else the committed row. The slice is the
// store's (see table.rows); callers decode or copy it, never hand it out.
func (tx *Tx) row(tableName, key string) ([]byte, bool) {
	if raw, seen := tx.writes[tableName][key]; seen {
		return raw, raw != nil
	}
	t, ok := tx.db.tables[tableName]
	if !ok {
		return nil, false
	}
	raw, ok := t.rows[key]
	return raw, ok
}

// Get unmarshals table/key into out, honouring the transaction's buffered
// writes.
func (tx *Tx) Get(tableName, key string, out interface{}) error {
	raw, ok := tx.row(tableName, key)
	if !ok {
		return ErrNotFound
	}
	return json.Unmarshal(raw, out)
}

// AppendRow appends the stored JSON of table/key to dst, undecoded, and
// returns the extended buffer; ErrNotFound (and dst unchanged) as Get. The
// bytes are what Put marshaled, so a caller whose response is that same
// struct's encoding serves them as they are.
func (tx *Tx) AppendRow(dst []byte, tableName, key string) ([]byte, error) {
	raw, ok := tx.row(tableName, key)
	if !ok {
		return dst, ErrNotFound
	}
	return append(dst, raw...), nil
}

// Exists reports whether table/key exists.
func (tx *Tx) Exists(tableName, key string) bool {
	_, ok := tx.row(tableName, key)
	return ok
}

// ScanPrefix calls fn, in key order, for every key of the table that
// starts with prefix — the committed range merged with the transaction's
// own buffered writes (a buffered delete hides the committed key); fn
// returning false stops the scan. The committed range is found by binary
// search, so the cost is O(log n + matches) however large the table is.
// Only keys are handed out: a caller reads the rows it wants, which is how
// a paginated page copies its window and merely counts the rest.
func (tx *Tx) ScanPrefix(tableName, prefix string, fn func(key string) bool) {
	var committed []string
	if t, ok := tx.db.tables[tableName]; ok {
		committed = t.prefixRange(prefix)
	}
	writes := tx.writes[tableName]
	var pending []string
	for k := range writes {
		if strings.HasPrefix(k, prefix) {
			pending = append(pending, k)
		}
	}
	sort.Strings(pending)
	for i, j := 0, 0; i < len(committed) || j < len(pending); {
		var k string
		if j == len(pending) || (i < len(committed) && committed[i] < pending[j]) {
			k = committed[i]
			i++
		} else {
			k = pending[j]
			j++
			if i < len(committed) && committed[i] == k {
				i++
			}
			if writes[k] == nil {
				continue
			}
		}
		if !fn(k) {
			return
		}
	}
}

// Keys returns the sorted keys of a table (committed state plus buffered
// writes).
func (tx *Tx) Keys(tableName string) []string {
	t := tx.db.tables[tableName]
	if t != nil && len(tx.writes[tableName]) == 0 {
		return append(make([]string, 0, len(t.keys)), t.keys...)
	}
	keys := []string{}
	tx.ScanPrefix(tableName, "", func(k string) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// Scan calls fn for every record of the table in key order; fn returning
// false stops the scan. raw is the caller's own copy of the record.
func (tx *Tx) Scan(tableName string, fn func(key string, raw json.RawMessage) bool) {
	tx.ScanPrefix(tableName, "", func(k string) bool {
		raw, err := tx.AppendRow(nil, tableName, k)
		if err != nil {
			return true
		}
		return fn(k, raw)
	})
}

// Count returns the number of records in the table.
func (tx *Tx) Count(tableName string) int {
	var rows map[string][]byte
	if t, ok := tx.db.tables[tableName]; ok {
		rows = t.rows
	}
	n := len(rows)
	for k, v := range tx.writes[tableName] {
		if _, committed := rows[k]; committed && v == nil {
			n--
		} else if !committed && v != nil {
			n++
		}
	}
	return n
}
