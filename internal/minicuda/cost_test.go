package minicuda

import (
	"fmt"
	"testing"

	"webgpu/internal/gpusim"
)

// TestCostClosedForms pins the cost model's per-instruction rule to the
// closed forms a student can work out by hand, on both engines. Each row
// is one block of two warps with one memory instruction of interest, and
// its counts are per warp: fout is the kernels' all-zero input, and the
// store to iout never fires.
func TestCostClosedForms(t *testing.T) {
	const warps = 2
	type row struct {
		name         string
		c            diffCase
		wantG, wantS int64 // GlobalTx and SharedTx per warp
	}
	var rows []row
	// Stride-s float reads: a warp's lanes span 32·4·s bytes, one
	// transaction per 128-byte segment, and at most one per lane.
	for _, s := range []int{1, 2, 3, 4, 8, 16, 32, 33, 64} {
		rows = append(rows, row{
			name: fmt.Sprintf("stride-%d", s),
			c: diffCase{kernel: "k", block: gpusim.D1(32 * warps), nFloat: 32 * warps * s, extra: []Arg{Int(s)},
				src: `__global__ void k(int *iout, float *fout, int s) {
  float v = fout[threadIdx.x * s];
  if (v < -1.0f) iout[0] = 1;
}`},
			wantG: int64(min(32, (32*4*s+127)/128)),
		})
	}
	// A k-way bank conflict: lane t writes word t·k, so a power-of-two k
	// puts k distinct words in every bank it touches, and an odd k spreads
	// the lanes over all 32 banks.
	for _, k := range []int{1, 2, 3, 4, 8, 16, 32} {
		want := int64(k)
		if k%2 == 1 {
			want = 1
		}
		rows = append(rows, row{
			name: fmt.Sprintf("bank-conflict-%d", k),
			c: diffCase{kernel: "k", block: gpusim.D1(32 * warps), extra: []Arg{Int(k)},
				src: `__global__ void k(int *iout, float *fout, int k) {
  __shared__ float s[2048];
  s[threadIdx.x * k] = 1.0f;
}`},
			wantS: want,
		})
	}
	rows = append(rows,
		// Every lane reads one word: a broadcast costs one access.
		row{name: "broadcast", wantS: 1, c: diffCase{kernel: "k", block: gpusim.D1(32 * warps),
			src: `__global__ void k(int *iout, float *fout) {
  __shared__ float s[32];
  float v = s[0];
  if (v < -1.0f) iout[0] = 1;
}`}},
		// The halves of a warp load one segment from two source lines: two
		// instructions, one transaction each. Pairing each thread's k-th
		// access instead would coalesce them into one.
		row{name: "divergent-halves", wantG: 2, c: diffCase{kernel: "k", block: gpusim.D1(32 * warps), nFloat: 32 * warps,
			src: `__global__ void k(int *iout, float *fout) {
  int t = threadIdx.x;
  float v;
  if (t % 32 < 16) v = fout[t]; else v = fout[t] * 2.0f;
  if (v < -1.0f) iout[0] = 1;
}`}},
	)
	for _, r := range rows {
		c := r.c.withDefaults()
		prog, err := Compile(c.src, DialectCUDA)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for _, e := range engines {
			t.Run(r.name+"/"+e.name, func(t *testing.T) {
				got := runOnEngine(t, prog, c, e.launch)
				if got.errStr != "" {
					t.Fatal(got.errStr)
				}
				if got.stats.GlobalTx != warps*r.wantG || got.stats.SharedTx != warps*r.wantS {
					t.Errorf("GlobalTx %d, SharedTx %d; want %d, %d",
						got.stats.GlobalTx, got.stats.SharedTx, warps*r.wantG, warps*r.wantS)
				}
			})
		}
	}
}
