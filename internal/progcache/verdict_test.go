package progcache_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webgpu/internal/castore"
	"webgpu/internal/gpusim"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
	"webgpu/internal/progcache"
)

// launchStats runs the lab's first dataset on prog and returns every
// launch's stats less WallTime.
func launchStats(t *testing.T, l *labs.Lab, prog *minicuda.Program) []gpusim.LaunchStats {
	t.Helper()
	devs := labs.NewDeviceSet(max(l.NumGPUs, 1))
	if o := labs.RunCompiled(context.Background(), l, prog, 0, devs, 0); !o.Correct {
		t.Fatalf("%s: reference failed dataset 0: %s%s", l.ID, o.RuntimeError, o.CheckMessage)
	}
	var out []gpusim.LaunchStats
	for _, d := range devs {
		for _, s := range d.Launches() {
			st := *s
			st.WallTime = 0
			out = append(out, st)
		}
	}
	return out
}

// checkAll runs Check and Diagnostics over every lab reference, as
// compile-only jobs do, and fails unless no entry holds a program after
// and each source's diagnostics equal a fresh cache's.
func checkAll(t *testing.T, c *progcache.Cache) {
	t.Helper()
	for _, l := range labs.All() {
		if _, err := c.Check(l.Reference, l.Dialect); err != nil {
			t.Fatalf("%s: check: %v", l.ID, err)
		}
		got, err := c.Diagnostics(l.Reference, l.Dialect)
		if err != nil {
			t.Fatalf("%s: diagnostics: %v", l.ID, err)
		}
		want, err := progcache.New(0, nil).Diagnostics(l.Reference, l.Dialect)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Diagnostics, want.Diagnostics) {
			t.Errorf("%s: diagnostics %v, a fresh cache's %v", l.ID, got.Diagnostics, want.Diagnostics)
		}
	}
	if s := c.Stats(); s.Programs != 0 || s.Size != len(labs.All()) {
		t.Fatalf("after checking every reference: %d programs held in %d entries, want 0 in %d", s.Programs, s.Size, len(labs.All()))
	}
}

// TestVerdictHoldsNoTree: a compile-only lookup leaves its entry holding
// the verdict and diagnostics, not the program, and a CompileStatus then
// rebuilds the program once — a store read when a store is attached,
// else a compile — which runs as a fresh compile's does.
func TestVerdictHoldsNoTree(t *testing.T) {
	for _, withStore := range []bool{true, false} {
		name := "memory"
		if withStore {
			name = "store"
		}
		t.Run(name, func(t *testing.T) {
			c := progcache.New(0, nil)
			if withStore {
				store, err := castore.Open(t.TempDir(), castore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { store.Close() })
				c.SetStore(store)
			}
			checkAll(t, c)
			for i, l := range labs.All() {
				before := c.Stats()
				prog, st, err := c.CompileStatus(l.Reference, l.Dialect)
				if err != nil || st != progcache.Miss {
					t.Fatalf("%s: rebuild: status %v, err %v; want a miss", l.ID, st, err)
				}
				after := c.Stats()
				disk, compiles := after.DiskHits-before.DiskHits, after.Compiles-before.Compiles
				if withStore && (disk != 1 || compiles != 0) || !withStore && (disk != 0 || compiles != 1) {
					t.Errorf("%s: rebuild made %d disk hits and %d compiles", l.ID, disk, compiles)
				}
				if after.Programs != i+1 || after.Size != before.Size {
					t.Errorf("%s: %d programs in %d entries after the rebuild, want %d in %d",
						l.ID, after.Programs, after.Size, i+1, before.Size)
				}
				if again, st, _ := c.CompileStatus(l.Reference, l.Dialect); st != progcache.Hit || again != prog {
					t.Errorf("%s: the rebuilt program is not kept: status %v", l.ID, st)
				}
				fresh, err := minicuda.Compile(l.Reference, l.Dialect)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := launchStats(t, l, prog), launchStats(t, l, fresh); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the rebuilt program launches as %+v, a fresh compile as %+v", l.ID, got, want)
				}
			}
			// A diagnostics hit leaves a pinned program where it is.
			before := c.Stats()
			for _, l := range labs.All() {
				if _, err := c.Diagnostics(l.Reference, l.Dialect); err != nil {
					t.Fatal(err)
				}
			}
			if s := c.Stats(); s.Programs != len(labs.All()) || s.Analyzes != before.Analyzes {
				t.Errorf("after diagnostics hits: %d programs held, %d analyses; want %d and %d",
					s.Programs, s.Analyzes, len(labs.All()), before.Analyzes)
			}
		})
	}
}

// TestRebuildIsSingleflight: concurrent CompileStatus calls on one
// verdict-only entry rebuild its program once and all get that program.
func TestRebuildIsSingleflight(t *testing.T) {
	l := labs.ByID("tiled-matmul")
	c := progcache.New(0, nil)
	if _, err := c.Diagnostics(l.Reference, l.Dialect); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Programs != 0 || s.Compiles != 1 {
		t.Fatalf("after diagnostics: %d programs, %d compiles; want 0 and 1", s.Programs, s.Compiles)
	}
	var calls atomic.Int64
	release := make(chan struct{})
	c.SetCompileFunc(func(src string, d minicuda.Dialect) (*minicuda.Program, error) {
		calls.Add(1)
		<-release
		return minicuda.Compile(src, d)
	})

	const callers = 8
	progs := make([]*minicuda.Program, callers)
	statuses := make([]progcache.Status, callers)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if progs[i], statuses[i], err = c.CompileStatus(l.Reference, l.Dialect); err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		}(i)
	}
	// Release the one rebuild once every other caller waits on it.
	deadline := time.After(5 * time.Second)
	for c.Stats().Coalesced < callers-1 {
		select {
		case <-deadline:
			t.Fatalf("callers did not coalesce: %+v", c.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("the rebuild compiled %d times, want 1", n)
	}
	misses := 0
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Errorf("caller %d got program %p, caller 0 %p", i, p, progs[0])
		}
		if statuses[i] == progcache.Miss {
			misses++
		}
	}
	s := c.Stats()
	if misses != 1 || s.Misses != 2 || s.Coalesced != callers-1 || s.Compiles != 2 || s.Programs != 1 {
		t.Errorf("%d callers missed; stats %+v", misses, s)
	}
	if _, err := c.Diagnostics(l.Reference, l.Dialect); err != nil || c.Stats().Analyzes != 1 {
		t.Errorf("the rebuild lost the entry's diagnostics: %v, %d analyses", err, c.Stats().Analyzes)
	}
}
