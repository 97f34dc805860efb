// Package castore is the durable content-addressed artifact store behind
// progcache: a dolt-inspired on-disk object store keyed by the same
// content hash progcache already computes, so compiled programs and
// kernel diagnostics survive process restarts and can be shared by every
// platform (or shard) pointed at the same directory.
//
// Layout under the store root:
//
//	objects/<key[:2]>/<key>.<blob>   one artifact file per (key, blob)
//	quarantine/<name>                hash-mismatched files, moved aside
//
// Durability and integrity:
//
//   - Writes go to a temp file in the final fanout directory and are
//     renamed into place, so readers only ever observe complete files and
//     a crash mid-write leaves a .tmp that Open sweeps away.
//   - Every file carries a header with the payload's SHA-256; reads verify
//     it. The store key hashes the *source*, not the artifact, so this
//     header is what catches torn writes and bit rot. A failed check
//     quarantines the file and reports a miss — corruption degrades to a
//     recompile, never a crash or a wrong artifact.
//
// Garbage collection is least-recently-used, and the files' own
// modification times are the recency index (as in Go's build cache):
// Open seeds one in-memory stamp per entry from the ModTime its walk
// stats anyway, Get and Put bump the stamp, and a Get writes it back to
// the file only when the store is bounded and the file's time is more
// than touchInterval old. When a Put pushes the object bytes over
// Options.MaxBytes, the store drops the longest-unused entries down to
// 7/8 of the budget, so the sort is paid once per batch of Puts.
package castore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/metrics"
)

const (
	fileMagic   = "WGCA"
	fileVersion = 1
	// headerSize = magic + version byte + sha256 + 8-byte payload length.
	headerSize = 4 + 1 + sha256.Size + 8

	// touchInterval bounds how stale a used file's ModTime may get: a Get
	// rewrites it only when it is at least this old, so a hot entry costs
	// one inode update an hour and recency on disk is exact to the hour.
	touchInterval = time.Hour
)

// Options configures a store.
type Options struct {
	// MaxBytes bounds the objects directory; 0 disables GC.
	MaxBytes int64
	// Metrics, when set, gets castore_* gauges registered as a collector.
	Metrics *metrics.Registry
	// Faults arms the castore.read / castore.write injection points.
	Faults *faultinject.Registry
}

// Stats is a snapshot of store counters since Open.
type Stats struct {
	Hits         int64 // verified reads served
	Misses       int64 // absent entries (and injected read faults)
	Puts         int64 // artifacts persisted
	Discards     int64 // entries dropped by the caller (codec skew etc.)
	Corruptions  int64 // hash/header verification failures
	Quarantined  int64 // corrupt files successfully moved aside
	BytesRead    int64 // payload bytes served
	BytesWritten int64 // payload bytes persisted
	DiskBytes    int64 // current objects/ footprint (headers included)
	GCRemoved    int64 // entries evicted by the size bound
	Objects      int64 // current entry count
}

// entry is what the store remembers of one artifact file.
type entry struct {
	size int64 // on-disk size, header included
	used int64 // recency stamp (Store.tickLocked): ModTime at Open, then last Get/Put
}

// Store is a persistent content-addressed artifact store. All methods are
// safe for concurrent use; a nil *Store is inert (reads miss, writes drop).
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	entries  map[string]entry // keyed "key.blob"
	clock    int64            // last stamp handed out
	stats    Stats
	diskFull bool
}

// Open opens (creating if needed) a store rooted at dir, sweeps leftover
// temp files from crashed writers, and takes each entry's size and
// recency from the file itself.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("castore: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	// Stores written before file times became the recency index kept an
	// access journal here; nothing reads it any more.
	os.Remove(filepath.Join(dir, "manifest.log"))
	s := &Store{
		dir:     dir,
		opts:    opts,
		entries: map[string]entry{},
	}
	err := filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if strings.HasSuffix(path, ".tmp") {
			return os.Remove(path)
		}
		s.entries[filepath.Base(path)] = entry{size: info.Size(), used: info.ModTime().UnixNano()}
		s.stats.DiskBytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("castore: scan objects: %w", err)
	}
	s.stats.Objects = int64(len(s.entries))
	if opts.Metrics != nil {
		opts.Metrics.AddCollector(func(r *metrics.Registry) {
			st := s.Stats()
			r.Set("castore_hits", float64(st.Hits))
			r.Set("castore_misses", float64(st.Misses))
			r.Set("castore_puts", float64(st.Puts))
			r.Set("castore_discards", float64(st.Discards))
			r.Set("castore_corruptions", float64(st.Corruptions))
			r.Set("castore_quarantined", float64(st.Quarantined))
			r.Set("castore_bytes_read", float64(st.BytesRead))
			r.Set("castore_bytes_written", float64(st.BytesWritten))
			r.Set("castore_disk_bytes", float64(st.DiskBytes))
			r.Set("castore_gc_removed", float64(st.GCRemoved))
			r.Set("castore_objects", float64(st.Objects))
		})
	}
	return s, nil
}

// entryName is the entries-map key, and the file name, of one artifact.
func entryName(key, blob string) string { return key + "." + blob }

// validName rejects anything that could escape the fanout layout; keys
// are progcache content hashes (lowercase hex), blobs short ASCII words
// (lowercase letters, digits, hyphens — version-suffixed names like
// "diag-kc2" are valid).
func validName(key, blob string) bool {
	if len(key) < 2 || len(key) > 128 || blob == "" || len(blob) > 32 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	for _, c := range blob {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

func (s *Store) objectPath(key, blob string) string {
	return filepath.Join(s.dir, "objects", key[:2], entryName(key, blob))
}

// tickLocked returns the stamp of an access happening now: wall-clock
// nanoseconds, the unit Open's ModTimes are in, pushed forward where the
// clock has not advanced (or stepped back) so that in-process order is
// never lost.
func (s *Store) tickLocked() int64 {
	now := time.Now().UnixNano()
	if now <= s.clock {
		now = s.clock + 1
	}
	s.clock = now
	return now
}

// miss counts an absent (or unreadable) entry.
func (s *Store) miss() ([]byte, bool) {
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	return nil, false
}

// readObject is os.ReadFile that also hands back the ModTime of the fstat
// it sizes its buffer with, so the touch decision in Get costs no syscall.
func readObject(path string) ([]byte, time.Time, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, time.Time{}, err
	}
	// Object files are renamed into place whole and never rewritten, so
	// the size is exact and one read takes it all.
	data := make([]byte, info.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, time.Time{}, err
	}
	return data, info.ModTime(), nil
}

// Get returns the payload stored under (key, blob). The second result is
// false on a miss; a file that fails hash verification is quarantined and
// reported as a miss, so the caller's only fallback path is "recompile".
func (s *Store) Get(key, blob string) ([]byte, bool) {
	if s == nil || !validName(key, blob) {
		return nil, false
	}
	if err := s.opts.Faults.Fire(faultinject.PointCAStoreRead); err != nil {
		return s.miss()
	}
	path := s.objectPath(key, blob)
	data, mtime, err := readObject(path)
	if err != nil {
		return s.miss()
	}
	payload, verr := verify(data)
	s.mu.Lock()
	if verr != nil {
		s.stats.Corruptions++
		s.quarantineLocked(key, blob, path)
		s.mu.Unlock()
		return nil, false
	}
	s.stats.Hits++
	s.stats.BytesRead += int64(len(payload))
	now := s.tickLocked()
	name := entryName(key, blob)
	if e, ok := s.entries[name]; ok {
		e.used = now
		s.entries[name] = e
	}
	s.mu.Unlock()
	// Recency only matters to GC, so an unbounded store never writes on a
	// read. Best effort: a file GC removed meanwhile has no time to keep.
	if s.opts.MaxBytes > 0 && now-mtime.UnixNano() >= int64(touchInterval) {
		t := time.Unix(0, now)
		os.Chtimes(path, t, t)
	}
	return payload, true
}

// verify checks the file header and payload hash, returning the payload.
func verify(data []byte) ([]byte, error) {
	if len(data) < headerSize || string(data[:4]) != fileMagic {
		return nil, errors.New("bad magic")
	}
	if data[4] != fileVersion {
		return nil, fmt.Errorf("unsupported file version %d", data[4])
	}
	want := data[5 : 5+sha256.Size]
	n := binary.BigEndian.Uint64(data[5+sha256.Size : headerSize])
	payload := data[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("payload length %d, header says %d", len(payload), n)
	}
	got := sha256.Sum256(payload)
	for i := range got {
		if got[i] != want[i] {
			return nil, errors.New("payload hash mismatch")
		}
	}
	return payload, nil
}

// quarantineLocked moves a corrupt file aside (never deletes: the bytes
// are evidence) under a name unique enough for repeat offenders.
func (s *Store) quarantineLocked(key, blob, path string) {
	dst := filepath.Join(s.dir, "quarantine",
		fmt.Sprintf("%s.%d", entryName(key, blob), s.stats.Corruptions))
	if err := os.Rename(path, dst); err != nil {
		// Already quarantined by a racing reader, or the file vanished;
		// either way it is no longer servable.
		if !os.IsNotExist(err) {
			os.Remove(path)
		}
	} else {
		s.stats.Quarantined++
	}
	s.dropEntryLocked(entryName(key, blob))
}

func (s *Store) dropEntryLocked(name string) {
	if e, ok := s.entries[name]; ok {
		s.stats.DiskBytes -= e.size
		s.stats.Objects--
		delete(s.entries, name)
	}
}

// Put persists payload under (key, blob) with an atomic temp-file +
// rename. Identical keys hold identical content by construction, so a
// concurrent double-write is benign last-write-wins. Errors are returned
// for observability but callers treat the store as best-effort.
func (s *Store) Put(key, blob string, payload []byte) error {
	if s == nil {
		return nil
	}
	if !validName(key, blob) {
		return fmt.Errorf("castore: invalid entry name %q.%q", key, blob)
	}
	if err := s.opts.Faults.Fire(faultinject.PointCAStoreWrite); err != nil {
		return err
	}
	dir := filepath.Join(s.dir, "objects", key[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return s.writeFailed(err)
	}
	buf := make([]byte, headerSize, headerSize+len(payload))
	copy(buf, fileMagic)
	buf[4] = fileVersion
	sum := sha256.Sum256(payload)
	copy(buf[5:], sum[:])
	binary.BigEndian.PutUint64(buf[5+sha256.Size:], uint64(len(payload)))
	buf = append(buf, payload...)

	tmp, err := os.CreateTemp(dir, entryName(key, blob)+".*.tmp")
	if err != nil {
		return s.writeFailed(err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return s.writeFailed(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return s.writeFailed(err)
	}
	if err := os.Rename(tmp.Name(), s.objectPath(key, blob)); err != nil {
		os.Remove(tmp.Name())
		return s.writeFailed(err)
	}

	name := entryName(key, blob)
	s.mu.Lock()
	s.dropEntryLocked(name) // an overwrite replaces the old file's footprint
	s.entries[name] = entry{size: int64(len(buf)), used: s.tickLocked()}
	s.stats.DiskBytes += int64(len(buf))
	s.stats.Objects++
	s.stats.Puts++
	s.stats.BytesWritten += int64(len(payload))
	s.diskFull = false
	s.gcLocked(name)
	s.mu.Unlock()
	return nil
}

// writeFailed notes a failed write, flagging disk-full for /healthz.
func (s *Store) writeFailed(err error) error {
	if errors.Is(err, syscall.ENOSPC) {
		s.mu.Lock()
		s.diskFull = true
		s.mu.Unlock()
	}
	return fmt.Errorf("castore: write: %w", err)
}

// Discard removes an entry that verified but could not be used — a codec
// version skew after a deploy, say. Unlike corruption this is an expected
// lifecycle event and does not degrade health.
func (s *Store) Discard(key, blob string) {
	if s == nil || !validName(key, blob) {
		return
	}
	path := s.objectPath(key, blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(path); err == nil || os.IsNotExist(err) {
		s.stats.Discards++
		s.dropEntryLocked(entryName(key, blob))
	}
}

// gcLocked enforces the MaxBytes budget after a Put of entry written: once
// over it, the least recently used entries go until the store is down to
// 7/8 of the budget, so the next Puts fit without another pass. Stopping
// at the budget itself would sort every entry, under s.mu, on each Put of
// a full store.
func (s *Store) gcLocked(written string) {
	if s.opts.MaxBytes <= 0 || s.stats.DiskBytes <= s.opts.MaxBytes {
		return
	}
	type victim struct {
		name string
		used int64
	}
	victims := make([]victim, 0, len(s.entries))
	for name, e := range s.entries {
		if name != written {
			victims = append(victims, victim{name, e.used})
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].used < victims[j].used })
	target := s.opts.MaxBytes - s.opts.MaxBytes/8
	for _, v := range victims {
		if s.stats.DiskBytes <= target {
			break
		}
		path := filepath.Join(s.dir, "objects", v.name[:2], v.name)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			continue
		}
		s.stats.GCRemoved++
		s.dropEntryLocked(v.name)
	}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Health reports the component status for /healthz: degraded when
// corruption has been quarantined (the artifacts recompile fine, but the
// disk deserves a look) or the last write hit disk-full.
func (s *Store) Health() (status, detail string) {
	if s == nil {
		return "absent", "no store configured"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.diskFull:
		return "degraded", fmt.Sprintf("disk full; %d objects, %d B", s.stats.Objects, s.stats.DiskBytes)
	case s.stats.Corruptions > 0:
		return "degraded", fmt.Sprintf("%d corrupt entries quarantined; %d objects, %d hits, %d misses",
			s.stats.Corruptions, s.stats.Objects, s.stats.Hits, s.stats.Misses)
	default:
		return "ok", fmt.Sprintf("%d objects, %d B, %d hits, %d misses",
			s.stats.Objects, s.stats.DiskBytes, s.stats.Hits, s.stats.Misses)
	}
}

// Dir returns the store root.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Close ends the store's use. It holds no descriptor between calls, so
// there is nothing to release; the method stays for callers that pair it
// with Open.
func (s *Store) Close() error { return nil }
