package db

import (
	"sync"
	"time"
)

// Streaming replication (§VI-A: "a replicated database", and the v1
// migration from MySQL to Aurora in §III-B). A Replica subscribes to the
// primary's commit stream and applies entries in order; if it falls behind
// (the primary drops entries for slow subscribers) it resynchronizes from
// a fresh snapshot.

// Subscribe returns a channel carrying every committed entry from now on.
// The channel is buffered; a subscriber that cannot keep up loses entries
// and must resync. Call the cancel function to unsubscribe. An entry's
// Value is the stored row itself, not a copy: subscribers must not write
// to it.
func (d *DB) Subscribe(buffer int) (<-chan Entry, func()) {
	ch := make(chan Entry, buffer)
	d.subMu.Lock()
	d.subs = append(d.subs, ch)
	d.subMu.Unlock()
	cancel := func() {
		d.subMu.Lock()
		for i, c := range d.subs {
			if c == ch {
				d.subs = append(d.subs[:i], d.subs[i+1:]...)
				close(ch)
				break
			}
		}
		d.subMu.Unlock()
	}
	return ch, cancel
}

// Replica is a read replica fed from a primary's subscription stream.
type Replica struct {
	db      *DB
	primary *DB

	mu       sync.Mutex
	applied  uint64
	gapSeen  bool
	stopped  bool
	stopCh   chan struct{}
	doneCh   chan struct{}
	cancelFn func()
}

// NewReplica attaches a replica to a primary and starts streaming.
func NewReplica(primary *DB) *Replica {
	r := &Replica{
		db:      New(),
		primary: primary,
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	r.resync()
	ch, cancel := primary.Subscribe(1024)
	r.cancelFn = cancel
	go r.stream(ch)
	return r
}

func (r *Replica) stream(ch <-chan Entry) {
	defer close(r.doneCh)
	for {
		select {
		case <-r.stopCh:
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			r.mu.Lock()
			if e.Seq <= r.applied {
				r.mu.Unlock()
				continue
			}
			if e.Seq != r.applied+1 {
				// Lost entries: mark the gap and resync below.
				r.gapSeen = true
			}
			if r.gapSeen {
				r.mu.Unlock()
				r.resync()
				continue
			}
			r.db.mu.Lock()
			r.db.applyLocked(e)
			r.db.seq = e.Seq
			r.db.mu.Unlock()
			r.applied = e.Seq
			r.mu.Unlock()
		}
	}
}

// clone returns a point-in-time copy of the database that shares the
// (immutable) row bytes with it: tables, key order and sequence number.
func (d *DB) clone() *DB {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := New()
	c.seq = d.seq
	for name, t := range d.tables {
		ct := &table{rows: make(map[string][]byte, len(t.rows)), keys: append([]string(nil), t.keys...)}
		for k, v := range t.rows {
			ct.rows[k] = v
		}
		c.tables[name] = ct
	}
	return c
}

// resync replaces the replica's state with the primary's current one.
func (r *Replica) resync() {
	fresh := r.primary.clone()
	r.mu.Lock()
	r.db.mu.Lock()
	r.db.tables = fresh.tables
	r.db.seq = fresh.seq
	r.db.mu.Unlock()
	r.applied = fresh.seq
	r.gapSeen = false
	r.mu.Unlock()
}

// View runs a read-only transaction on the replica.
func (r *Replica) View(fn func(tx *Tx) error) error {
	return r.db.View(fn)
}

// Lag returns how many commits the replica is behind the primary.
func (r *Replica) Lag() uint64 {
	pseq := r.primary.Seq()
	r.mu.Lock()
	defer r.mu.Unlock()
	if pseq <= r.applied {
		return 0
	}
	return pseq - r.applied
}

// WaitCaughtUp blocks until lag reaches zero or the timeout expires,
// reporting success.
func (r *Replica) WaitCaughtUp(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if r.Lag() == 0 {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return r.Lag() == 0
}

// Stop detaches the replica from the primary.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	r.cancelFn()
	close(r.stopCh)
	<-r.doneCh
}

// Promote detaches the replica and returns it as a standalone primary
// (failover). The caller should stop routing writes to the old primary
// first.
func (r *Replica) Promote() *DB {
	r.Stop()
	return r.db
}
