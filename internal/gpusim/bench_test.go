package gpusim

import "testing"

func BenchmarkMemcpyHtoD(b *testing.B) {
	d := NewDefaultDevice()
	data := make([]byte, 1<<20)
	p, _ := d.Malloc(len(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.MemcpyHtoD(p, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMallocReset(b *testing.B) {
	d := NewDefaultDevice()
	for i := 0; i < b.N; i++ {
		if _, err := d.Malloc(4096); err != nil {
			b.Fatal(err)
		}
		d.Reset()
	}
}

func BenchmarkLaunchOverhead(b *testing.B) {
	d := NewDefaultDevice()
	cfg := LaunchConfig{Grid: D1(1), Block: D1(1)}
	nop := func(tc *ThreadCtx) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch("nop", cfg, nop); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVecAdd64K(b *testing.B) {
	d := NewDefaultDevice()
	n := 1 << 16
	a, _ := d.Malloc(n * 4)
	bb, _ := d.Malloc(n * 4)
	c, _ := d.Malloc(n * 4)
	cfg := LaunchConfig{Grid: D1(n / 256), Block: D1(256)}
	k := vecAddKernel(a, bb, c, n)
	b.SetBytes(int64(n * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch("vecAdd", cfg, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarrierHeavyKernel(b *testing.B) {
	d := NewDefaultDevice()
	cfg := LaunchConfig{Grid: D1(4), Block: D1(256), SharedMemBytes: 1024}
	k := func(tc *ThreadCtx) error {
		for s := 0; s < 16; s++ {
			if err := tc.SyncThreads(); err != nil {
				return err
			}
		}
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch("barriers", cfg, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAtomicContention(b *testing.B) {
	d := NewDefaultDevice()
	ctr, _ := d.Malloc(4)
	cfg := LaunchConfig{Grid: D1(8), Block: D1(128)}
	k := func(tc *ThreadCtx) error {
		_, err := tc.AtomicAddInt32(ctr, 0, 1)
		return err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch("atomics", cfg, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTiledVsNaiveMatMul(b *testing.B) {
	n := 64
	run := func(b *testing.B, tiled bool) {
		d := NewDefaultDevice()
		a, _ := d.Malloc(n * n * 4)
		bb, _ := d.Malloc(n * n * 4)
		c, _ := d.Malloc(n * n * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if tiled {
				_, err = matMulTiled(d, a, bb, c, n, 16)
			} else {
				_, err = matMulNaive(d, a, bb, c, n)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("naive", func(b *testing.B) { run(b, false) })
	b.Run("tiled", func(b *testing.B) { run(b, true) })
}
