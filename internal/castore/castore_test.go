package castore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/faultinject"
	"webgpu/internal/metrics"
)

// soakSeeds mirrors the chaos-test convention: a deterministic default
// set, overridable with CHAOS_SEED for replaying a CI failure.
func soakSeeds(t *testing.T) []int64 {
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		return []int64{seed}
	}
	return []int64{1, 2, 42}
}

func key(i int) string {
	return fmt.Sprintf("%064x", i)
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	payload := []byte("compiled program artifact bytes")
	if err := s.Put(key(1), "prog", payload); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok := s.Get(key(1), "prog")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get = %q, %v; want payload back", got, ok)
	}
	if _, ok := s.Get(key(2), "prog"); ok {
		t.Fatal("get of absent key reported a hit")
	}
	if _, ok := s.Get(key(1), "diag"); ok {
		t.Fatal("get of absent blob reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 || st.Objects != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesRead != int64(len(payload)) || st.BytesWritten != int64(len(payload)) {
		t.Fatalf("byte counters = %+v", st)
	}
}

func TestRejectsHostileNames(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for _, bad := range []struct{ key, blob string }{
		{"../../etc/passwd", "prog"},
		{"ABCDEF", "prog"}, // uppercase hex is not a progcache key
		{key(1), "PROG"},
		{key(1), "p/../../x"},
		{key(1), ""},
		{"a", "prog"}, // too short for fanout
	} {
		if err := s.Put(bad.key, bad.blob, []byte("x")); err == nil {
			t.Fatalf("put accepted hostile name %q.%q", bad.key, bad.blob)
		}
		if _, ok := s.Get(bad.key, bad.blob); ok {
			t.Fatalf("get accepted hostile name %q.%q", bad.key, bad.blob)
		}
	}
}

// TestSurvivesReopen is the restart story in miniature: a second store on
// the same directory serves the first store's artifacts.
func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := s1.Put(key(i), "prog", []byte(fmt.Sprintf("artifact %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()

	s2 := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		got, ok := s2.Get(key(i), "prog")
		if !ok || string(got) != fmt.Sprintf("artifact %d", i) {
			t.Fatalf("entry %d did not survive reopen: %q, %v", i, got, ok)
		}
	}
	if st := s2.Stats(); st.Objects != 10 || st.DiskBytes == 0 {
		t.Fatalf("reopened stats = %+v", st)
	}
}

// TestSharedDirectory runs two live stores over one directory — the
// two-shards-one-store topology — and checks writes from one are
// readable by the other with no coordination.
func TestSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	b := mustOpen(t, dir, Options{})
	if err := a.Put(key(7), "prog", []byte("from a")); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Get(key(7), "prog"); !ok || string(got) != "from a" {
		t.Fatalf("store b did not see a's write: %q, %v", got, ok)
	}
	// Identical-content double write is benign last-write-wins.
	if err := b.Put(key(7), "prog", []byte("from a")); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get(key(7), "prog"); !ok || string(got) != "from a" {
		t.Fatalf("double write broke the entry: %q, %v", got, ok)
	}
}

// TestCorruptionQuarantine flips bytes in stored files — header, hash,
// and payload regions — and requires every corruption to degrade to a
// miss with the file quarantined, never a wrong payload.
func TestCorruptionQuarantine(t *testing.T) {
	for _, seed := range soakSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			const n = 32
			for i := 0; i < n; i++ {
				if err := s.Put(key(i), "prog", []byte(fmt.Sprintf("payload-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			corrupted := map[int]bool{}
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					continue
				}
				corrupted[i] = true
				path := filepath.Join(dir, "objects", key(i)[:2], key(i)+".prog")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				switch rng.Intn(3) {
				case 0: // bit rot anywhere in the file
					data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
				case 1: // torn write: truncated tail
					data = data[:rng.Intn(len(data))]
				default: // torn write: partial final block replaced by zeros
					for j := len(data) - 1 - rng.Intn(len(data)/2+1); j < len(data); j++ {
						data[j] = 0
					}
					// Zeroing may be a no-op on zero bytes; flip one to be sure.
					data[len(data)-1] ^= 0xff
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				got, ok := s.Get(key(i), "prog")
				want := fmt.Sprintf("payload-%d", i)
				if corrupted[i] {
					if ok {
						t.Fatalf("seed %d: corrupt entry %d was served (%q); replay with CHAOS_SEED=%d",
							seed, i, got, seed)
					}
				} else if !ok || string(got) != want {
					t.Fatalf("seed %d: intact entry %d broken: %q, %v; replay with CHAOS_SEED=%d",
						seed, i, got, ok, seed)
				}
			}
			st := s.Stats()
			if int(st.Corruptions) != len(corrupted) || int(st.Quarantined) != len(corrupted) {
				t.Fatalf("corruptions=%d quarantined=%d, want %d each",
					st.Corruptions, st.Quarantined, len(corrupted))
			}
			if len(corrupted) > 0 {
				if status, _ := s.Health(); status != "degraded" {
					t.Fatalf("health = %q after corruption, want degraded", status)
				}
				ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
				if err != nil || len(ents) != len(corrupted) {
					t.Fatalf("quarantine dir has %d entries, want %d (err %v)", len(ents), len(corrupted), err)
				}
				// A corrupt entry must be re-persistable after recompile.
				for i := range corrupted {
					if err := s.Put(key(i), "prog", []byte(fmt.Sprintf("payload-%d", i))); err != nil {
						t.Fatal(err)
					}
					if got, ok := s.Get(key(i), "prog"); !ok || string(got) != fmt.Sprintf("payload-%d", i) {
						t.Fatalf("re-put after quarantine broken: %q, %v", got, ok)
					}
				}
			} else if status, _ := s.Health(); status != "ok" {
				t.Fatalf("health = %q with no corruption", status)
			}
		})
	}
}

// TestCrashMidWrite simulates a writer dying between temp-file creation
// and rename: an Open after the temp file has gone stale sweeps it and
// the entry is a miss.
func TestCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put(key(1), "prog", []byte("good")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A torn .tmp beside a good object.
	fan := filepath.Join(dir, "objects", key(2)[:2])
	if err := os.MkdirAll(fan, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(fan, key(2)+".prog.12345.tmp")
	if err := os.WriteFile(tmp, []byte("WGCA\x01partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	crashed := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(tmp, crashed, crashed); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover temp file not swept on open")
	}
	if _, ok := s2.Get(key(2), "prog"); ok {
		t.Fatal("torn write became a servable entry")
	}
	if got, ok := s2.Get(key(1), "prog"); !ok || string(got) != "good" {
		t.Fatalf("intact neighbour lost: %q, %v", got, ok)
	}
}

// TestOpenBesideLiveWriter: a process opening a shared directory leaves a
// neighbour's in-flight temp file alone, so the neighbour's rename still
// lands and the new store serves the entry.
func TestOpenBesideLiveWriter(t *testing.T) {
	dir := t.TempDir()
	writer := mustOpen(t, dir, Options{})
	if err := writer.Put(key(1), "prog", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	// Stop the writer's Put between its write and its rename: move the
	// object back to a temp name of the form Put creates.
	obj := writer.objectPath(key(1), "prog")
	tmp := obj + ".4242.tmp"
	if err := os.Rename(obj, tmp); err != nil {
		t.Fatal(err)
	}
	reader := mustOpen(t, dir, Options{})
	if err := os.Rename(tmp, obj); err != nil { // the rest of the writer's Put
		t.Fatalf("the neighbour's Open swept a live write: %v", err)
	}
	if got, ok := reader.Get(key(1), "prog"); !ok || string(got) != "fresh" {
		t.Fatalf("entry renamed in after Open = %q, %v", got, ok)
	}
}

// TestOpenSkipsFilesGoneMidWalk: a file a neighbour removes between Open's
// directory read and its stat (an eviction, a swept or renamed temp file)
// is skipped, and so is a directory that went the same way.
func TestOpenSkipsFilesGoneMidWalk(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 2; i++ {
		if err := s.Put(key(i), "prog", []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	fan := filepath.Dir(s.objectPath(key(0), "prog"))
	stale := filepath.Join(fan, key(2)+".prog.77.tmp")
	if err := os.WriteFile(stale, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	crashed := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, crashed, crashed); err != nil {
		t.Fatal(err)
	}
	// The directory read happens, then every file in it goes.
	ents, err := os.ReadDir(fan)
	if err != nil || len(ents) != 3 {
		t.Fatalf("fanout dir holds %d entries (err %v), want 2 objects and a temp file", len(ents), err)
	}
	for _, d := range ents {
		if err := os.Remove(filepath.Join(fan, d.Name())); err != nil {
			t.Fatal(err)
		}
	}

	fresh := &Store{entries: map[string]entry{}}
	for _, d := range ents {
		if err := fresh.scan(filepath.Join(fan, d.Name()), d, nil); err != nil {
			t.Errorf("%s, gone mid-walk: %v", d.Name(), err)
		}
	}
	gone := &fs.PathError{Op: "open", Path: fan, Err: fs.ErrNotExist}
	if err := fresh.scan(fan, nil, gone); err != nil {
		t.Errorf("directory gone mid-walk: %v", err)
	}
	if len(fresh.entries) != 0 {
		t.Errorf("entries of removed files recorded: %v", fresh.entries)
	}
	if err := fresh.scan(fan, nil, &fs.PathError{Op: "open", Path: fan, Err: fs.ErrPermission}); !errors.Is(err, fs.ErrPermission) {
		t.Errorf("an unreadable directory = %v, want its error", err)
	}
}

// TestFaultInjection arms the castore points: read faults degrade to
// misses, write faults drop the artifact without corrupting the store.
func TestFaultInjection(t *testing.T) {
	for _, seed := range soakSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			faults := faultinject.New(seed)
			faults.Enable(faultinject.PointCAStoreRead, faultinject.Fault{Prob: 0.5})
			faults.Enable(faultinject.PointCAStoreWrite, faultinject.Fault{Prob: 0.5})
			s := mustOpen(t, t.TempDir(), Options{Faults: faults})
			written := map[int]bool{}
			for i := 0; i < 64; i++ {
				if err := s.Put(key(i), "prog", []byte(fmt.Sprintf("p%d", i))); err == nil {
					written[i] = true
				}
			}
			if len(written) == 0 || len(written) == 64 {
				t.Fatalf("write faults did not exercise both paths: %d/64 written", len(written))
			}
			for i := 0; i < 64; i++ {
				got, ok := s.Get(key(i), "prog")
				if ok && (!written[i] || string(got) != fmt.Sprintf("p%d", i)) {
					t.Fatalf("seed %d: wrong artifact for %d: %q; replay with CHAOS_SEED=%d",
						seed, i, got, seed)
				}
			}
			if faults.Fired(faultinject.PointCAStoreRead) == 0 ||
				faults.Fired(faultinject.PointCAStoreWrite) == 0 {
				t.Fatal("fault points never fired")
			}
			faults.DisableAll()
			// With faults off, everything that was written is servable.
			for i := range written {
				if got, ok := s.Get(key(i), "prog"); !ok || string(got) != fmt.Sprintf("p%d", i) {
					t.Fatalf("written entry %d lost after faults disabled: %q, %v", i, got, ok)
				}
			}
		})
	}
}

// TestGCBound fills the store past MaxBytes and checks the least
// recently accessed entries go first while hot entries survive.
func TestGCBound(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1000)
	perEntry := int64(len(payload) + headerSize)
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 10 * perEntry})
	for i := 0; i < 10; i++ {
		if err := s.Put(key(i), "prog", payload); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the first three so they are the most recently accessed.
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(key(i), "prog"); !ok {
			t.Fatalf("warm get %d missed", i)
		}
	}
	// Five more puts force five evictions.
	for i := 10; i < 15; i++ {
		if err := s.Put(key(i), "prog", payload); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DiskBytes > 10*perEntry {
		t.Fatalf("disk bytes %d over budget %d", st.DiskBytes, 10*perEntry)
	}
	if st.GCRemoved == 0 {
		t.Fatal("GC never ran")
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(key(i), "prog"); !ok {
			t.Fatalf("recently accessed entry %d was evicted", i)
		}
	}
	for i := 10; i < 15; i++ {
		if _, ok := s.Get(key(i), "prog"); !ok {
			t.Fatalf("fresh entry %d was evicted", i)
		}
	}
}

// TestGCEvictsInBatches: a full store does not order every entry on every
// Put. One pass evicts down to 7/8 of the budget, the following Puts fit,
// and the budget holds whenever a Put has returned.
func TestGCEvictsInBatches(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1000)
	perEntry := int64(len(payload) + headerSize)
	const budget, n = 32, 64
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: budget * perEntry})
	for i := 0; i < budget; i++ {
		if err := s.Put(key(i), "prog", payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.GCRemoved != 0 || st.Objects != budget {
		t.Fatalf("a store at its budget evicted: %+v", st)
	}
	passes := 0
	for i := budget; i < budget+n; i++ {
		before := s.Stats().GCRemoved
		if err := s.Put(key(i), "prog", payload); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.GCRemoved > before {
			passes++
		}
		if st.DiskBytes > budget*perEntry {
			t.Fatalf("put %d returned with %d B on disk, budget %d", i, st.DiskBytes, budget*perEntry)
		}
		if _, ok := s.Get(key(i), "prog"); !ok {
			t.Fatalf("put %d evicted the entry it wrote", i)
		}
	}
	if passes == 0 || passes >= n/2 {
		t.Fatalf("%d of %d over-budget puts ran an eviction pass, want a few batches", passes, n)
	}
}

// backdate sets an object file's times to age ago and returns its path.
func backdate(t *testing.T, dir string, i int, age time.Duration) string {
	t.Helper()
	path := filepath.Join(dir, "objects", key(i)[:2], key(i)+".prog")
	at := time.Now().Add(-age)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
	return path
}

func modTime(t *testing.T, path string) time.Time {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.ModTime()
}

// TestRecencySurvivesReopen: file times are the only recency record. A Get
// of the oldest entry is written back to its file, so the store opened
// next evicts the second-oldest instead.
func TestRecencySurvivesReopen(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1000)
	perEntry := int64(len(payload) + headerSize)
	// Room for three entries, and one eviction brings four back to three.
	opts := Options{MaxBytes: 3*perEntry + perEntry/2}
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), "prog", payload); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	backdate(t, dir, 0, 6*time.Hour)
	backdate(t, dir, 1, 4*time.Hour)
	backdate(t, dir, 2, 2*time.Hour)

	s = mustOpen(t, dir, opts)
	if _, ok := s.Get(key(0), "prog"); !ok {
		t.Fatal("oldest entry missing")
	}
	s.Close()

	s = mustOpen(t, dir, opts)
	if err := s.Put(key(3), "prog", payload); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.GCRemoved != 1 || st.Objects != 3 {
		t.Fatalf("stats after the fourth put = %+v, want one eviction", st)
	}
	if _, ok := s.Get(key(1), "prog"); ok {
		t.Fatal("second-oldest entry survived: the earlier store's Get of the oldest was not recorded")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Get(key(i), "prog"); !ok {
			t.Fatalf("entry %d was evicted", i)
		}
	}
}

// TestTouchIsBounded: a Get rewrites a file's time only when the store is
// bounded and the time is older than touchInterval, and then to the store
// clock's now.
func TestTouchIsBounded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBytes int64
		age      time.Duration
		touched  bool
	}{
		{"bounded, young file", 1 << 20, touchInterval / 2, false},
		{"bounded, old file", 1 << 20, 5 * touchInterval, true},
		{"unbounded, old file", 0, 5 * touchInterval, false},
	} {
		dir := t.TempDir()
		start := time.Unix(1_700_000_000, 0)
		mc := clock.NewManual(start)
		s := mustOpen(t, dir, Options{MaxBytes: tc.maxBytes, Clock: mc})
		if err := s.Put(key(1), "prog", []byte("p")); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "objects", key(1)[:2], key(1)+".prog")
		if err := os.Chtimes(path, start.Add(-tc.age), start.Add(-tc.age)); err != nil {
			t.Fatal(err)
		}
		// The Put stamped start; whole seconds keep the touched time exact
		// on a file system with coarse file times.
		mc.Advance(time.Second)
		before := modTime(t, path)
		for i := 0; i < 3; i++ {
			if _, ok := s.Get(key(1), "prog"); !ok {
				t.Fatalf("%s: get missed", tc.name)
			}
		}
		after := modTime(t, path)
		if touched := !after.Equal(before); touched != tc.touched {
			t.Errorf("%s: ModTime %v -> %v, touched = %v, want %v", tc.name, before, after, touched, tc.touched)
		}
		if tc.touched && !after.Equal(mc.Now()) {
			t.Errorf("%s: touched to %v, want the clock's now %v", tc.name, after, mc.Now())
		}
	}
}

// TestTouchBesideSharedGC: two bounded stores on one directory read,
// overwrite and evict the same back-dated files at once, so the touch of
// one races the other's GC and rename. A Get is a right payload or a miss.
func TestTouchBesideSharedGC(t *testing.T) {
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 1000) }
	perEntry := int64(1000 + headerSize)
	dir := t.TempDir()
	seedStore := mustOpen(t, dir, Options{})
	for i := 0; i < 16; i++ {
		if err := seedStore.Put(key(i), "prog", payload(i)); err != nil {
			t.Fatal(err)
		}
		backdate(t, dir, i, time.Duration(2+i)*touchInterval)
	}
	stores := make([]*Store, 4)
	for g := range stores {
		stores[g] = mustOpen(t, dir, Options{MaxBytes: 12 * perEntry})
	}
	var wg sync.WaitGroup
	for g, s := range stores {
		wg.Add(1)
		go func(g int, s *Store) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (n*7 + g) % 24
				if n%4 == g%4 {
					if err := s.Put(key(i), "prog", payload(i)); err != nil {
						t.Errorf("put: %v", err)
					}
				} else if got, ok := s.Get(key(i), "prog"); ok && !bytes.Equal(got, payload(i)) {
					t.Errorf("wrong payload for entry %d", i)
				}
			}
		}(g, s)
	}
	wg.Wait()
	for g, s := range stores {
		if st := s.Stats(); st.Corruptions != 0 {
			t.Errorf("store %d: a racing touch or eviction looked like corruption: %+v", g, st)
		}
	}
}

// TestLeftoverJournalRemoved: a directory written by a store that still
// kept manifest.log — whole, or torn by a crash mid-append — opens
// cleanly, serves every entry, and holds only objects/ and quarantine/.
func TestLeftoverJournalRemoved(t *testing.T) {
	for name, tail := range map[string]string{"whole": "", "torn": "get " + key(1)[:17]} {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		journal := ""
		for i := 0; i < 4; i++ {
			if err := s.Put(key(i), "prog", []byte(fmt.Sprintf("p%d", i))); err != nil {
				t.Fatal(err)
			}
			journal += fmt.Sprintf("put %s.prog\nget %s.prog\n", key(i), key(i))
		}
		s.Close()
		if err := os.WriteFile(filepath.Join(dir, "manifest.log"), []byte(journal+tail), 0o644); err != nil {
			t.Fatal(err)
		}

		s = mustOpen(t, dir, Options{})
		for i := 0; i < 4; i++ {
			if got, ok := s.Get(key(i), "prog"); !ok || string(got) != fmt.Sprintf("p%d", i) {
				t.Fatalf("%s: entry %d = %q, %v", name, i, got, ok)
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Name() != "objects" && e.Name() != "quarantine" {
				t.Errorf("%s: %s left in the store directory after Open", name, e.Name())
			}
		}
	}
}

// TestConcurrentAccess hammers one store from many goroutines; run under
// -race in CI.
func TestConcurrentAccess(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(i % 20)
				if i%3 == 0 {
					if err := s.Put(k, "prog", []byte(fmt.Sprintf("v-%d", i%20))); err != nil {
						t.Errorf("put: %v", err)
					}
				} else if got, ok := s.Get(k, "prog"); ok {
					if string(got) != fmt.Sprintf("v-%d", i%20) {
						t.Errorf("wrong payload %q for %s", got, k)
					}
				}
				s.Stats()
				s.Health()
			}
		}(g)
	}
	wg.Wait()
}

func TestMetricsCollector(t *testing.T) {
	reg := metrics.NewRegistry()
	s := mustOpen(t, t.TempDir(), Options{Metrics: reg})
	if err := s.Put(key(1), "prog", []byte("p")); err != nil {
		t.Fatal(err)
	}
	s.Get(key(1), "prog")
	s.Get(key(2), "prog")
	reg.Collect()
	if reg.Gauge("castore_hits") != 1 || reg.Gauge("castore_misses") != 1 ||
		reg.Gauge("castore_puts") != 1 || reg.Gauge("castore_objects") != 1 {
		t.Fatalf("gauges: hits=%v misses=%v puts=%v objects=%v",
			reg.Gauge("castore_hits"), reg.Gauge("castore_misses"),
			reg.Gauge("castore_puts"), reg.Gauge("castore_objects"))
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if err := s.Put(key(1), "prog", []byte("p")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(1), "prog"); ok {
		t.Fatal("nil store hit")
	}
	s.Discard(key(1), "prog")
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if status, _ := s.Health(); status != "absent" {
		t.Fatalf("nil health = %q", status)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiscard(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Put(key(1), "prog", []byte("old codec version")); err != nil {
		t.Fatal(err)
	}
	s.Discard(key(1), "prog")
	if _, ok := s.Get(key(1), "prog"); ok {
		t.Fatal("discarded entry still served")
	}
	st := s.Stats()
	if st.Discards != 1 || st.Objects != 0 {
		t.Fatalf("stats after discard = %+v", st)
	}
	if status, _ := s.Health(); status != "ok" {
		t.Fatalf("discard degraded health: %q", status)
	}
}

// FuzzCastoreFrame writes arbitrary bytes as the object file of one key
// and reads it back. Get never panics and serves a payload only when the
// file is a WGCA version-1 frame whose header names that payload's length
// and SHA-256; anything else is a miss that counts one corruption and
// moves the file to quarantine/. The seeds under testdata/fuzz are a
// valid frame, a short header, a wrong version, a length mismatch and a
// flipped payload byte.
func FuzzCastoreFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		path := filepath.Join(dir, "objects", key(1)[:2], key(1)+".prog")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(key(1), "prog")
		st := s.Stats()
		if ok {
			const hdr = 4 + 1 + sha256.Size + 8
			sum := sha256.Sum256(got)
			if len(data) != hdr+len(got) || string(data[:5]) != "WGCA\x01" || !bytes.Equal(data[5:5+sha256.Size], sum[:]) ||
				binary.BigEndian.Uint64(data[5+sha256.Size:hdr]) != uint64(len(got)) || !bytes.Equal(data[hdr:], got) {
				t.Fatalf("served %q from a file whose header does not frame it: %q", got, data)
			}
			if st.Corruptions != 0 || st.Hits != 1 {
				t.Fatalf("a served frame counted %+v", st)
			}
			return
		}
		if st.Corruptions != 1 || st.Quarantined != 1 {
			t.Fatalf("a refused frame counted %d corruptions, %d quarantined; want 1 each", st.Corruptions, st.Quarantined)
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("the refused file is still in objects/ (stat: %v)", err)
		}
		if ents, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(ents) != 1 {
			t.Fatalf("quarantine/ holds %d files (err %v), want the refused one", len(ents), err)
		}
	})
}
