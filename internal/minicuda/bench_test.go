package minicuda

import (
	"testing"

	"webgpu/internal/gpusim"
)

const benchSrc = `
#define TILE_WIDTH 16
__global__ void matrixMultiplyShared(float *A, float *B, float *C,
                                     int numARows, int numACols, int numBCols) {
  __shared__ float tileA[TILE_WIDTH][TILE_WIDTH];
  __shared__ float tileB[TILE_WIDTH][TILE_WIDTH];
  int row = blockIdx.y * TILE_WIDTH + threadIdx.y;
  int col = blockIdx.x * TILE_WIDTH + threadIdx.x;
  float acc = 0.0f;
  int tiles = (numACols + TILE_WIDTH - 1) / TILE_WIDTH;
  for (int m = 0; m < tiles; m++) {
    if (row < numARows && m * TILE_WIDTH + threadIdx.x < numACols)
      tileA[threadIdx.y][threadIdx.x] = A[row * numACols + m * TILE_WIDTH + threadIdx.x];
    else
      tileA[threadIdx.y][threadIdx.x] = 0.0f;
    if (col < numBCols && m * TILE_WIDTH + threadIdx.y < numACols)
      tileB[threadIdx.y][threadIdx.x] = B[(m * TILE_WIDTH + threadIdx.y) * numBCols + col];
    else
      tileB[threadIdx.y][threadIdx.x] = 0.0f;
    __syncthreads();
    for (int k = 0; k < TILE_WIDTH; k++)
      acc += tileA[threadIdx.y][k] * tileB[k][threadIdx.x];
    __syncthreads();
  }
  if (row < numARows && col < numBCols)
    C[row * numBCols + col] = acc;
}
`

func BenchmarkLex(b *testing.B) {
	pp, err := Preprocess(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pp)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lex(pp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(benchSrc)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchSrc, DialectCUDA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	b.SetBytes(int64(len(benchSrc)))
	for i := 0; i < b.N; i++ {
		if _, err := Compile(benchSrc, DialectCUDA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpretTiledMatMul32(b *testing.B) {
	prog, err := Compile(benchSrc, DialectCUDA)
	if err != nil {
		b.Fatal(err)
	}
	d := gpusim.NewDefaultDevice()
	n := 32
	a, _ := d.Malloc(n * n * 4)
	bb, _ := d.Malloc(n * n * 4)
	c, _ := d.Malloc(n * n * 4)
	opts := LaunchOpts{Grid: gpusim.D2(n/16, n/16), Block: gpusim.D2(16, 16)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Launch(d, "matrixMultiplyShared", opts,
			FloatPtr(a), FloatPtr(bb), FloatPtr(c),
			Int(n), Int(n), Int(n)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpretVecAdd4K(b *testing.B) {
	src := `__global__ void vecAdd(float *a, float *b, float *c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) c[i] = a[i] + b[i];
}`
	prog, err := Compile(src, DialectCUDA)
	if err != nil {
		b.Fatal(err)
	}
	d := gpusim.NewDefaultDevice()
	n := 4096
	a, _ := d.Malloc(n * 4)
	bb, _ := d.Malloc(n * 4)
	c, _ := d.Malloc(n * 4)
	opts := LaunchOpts{Grid: gpusim.D1(n / 256), Block: gpusim.D1(256)}
	b.SetBytes(int64(n * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Launch(d, "vecAdd", opts,
			FloatPtr(a), FloatPtr(bb), FloatPtr(c), Int(n)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngines are the arms of the side-by-side engine benchmarks.
var benchEngines = []struct {
	name   string
	launch launcher
}{{"warp", launchWarp}, {"tree", launchTree}}

// BenchmarkWarpVsTreeMatMul runs the tiled matrix multiply under the
// warp-vectorized engine and the tree-walking oracle, side by side. This
// is the headline pair for the warp tier: a barrier-heavy, largely-uniform
// kernel where once-per-warp decode should win big.
func BenchmarkWarpVsTreeMatMul(b *testing.B) {
	prog, err := Compile(benchSrc, DialectCUDA)
	if err != nil {
		b.Fatal(err)
	}
	for _, sub := range benchEngines {
		b.Run(sub.name, func(b *testing.B) {
			d := gpusim.NewDefaultDevice()
			n := 32
			a, _ := d.Malloc(n * n * 4)
			bb, _ := d.Malloc(n * n * 4)
			c, _ := d.Malloc(n * n * 4)
			opts := LaunchOpts{Grid: gpusim.D2(n/16, n/16), Block: gpusim.D2(16, 16)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sub.launch(prog, d, "matrixMultiplyShared", opts,
					FloatPtr(a), FloatPtr(bb), FloatPtr(c),
					Int(n), Int(n), Int(n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarpDivergent stresses the warp engine's worst case: a
// data-dependent loop (Collatz) where lanes diverge immediately and
// re-converge rarely, so strands shrink toward single lanes and the
// once-per-warp decode advantage evaporates. The warp engine must still
// beat the tree-walking oracle here.
func BenchmarkWarpDivergent(b *testing.B) {
	src := `__global__ void collatz(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= n) return;
  int v = i + 1;
  int steps = 0;
  while (v != 1 && steps < 200) {
    if (v & 1) { v = 3 * v + 1; } else { v = v / 2; }
    steps++;
  }
  out[i] = steps;
}`
	prog, err := Compile(src, DialectCUDA)
	if err != nil {
		b.Fatal(err)
	}
	for _, sub := range benchEngines {
		b.Run(sub.name, func(b *testing.B) {
			d := gpusim.NewDefaultDevice()
			n := 4096
			out, _ := d.Malloc(n * 4)
			opts := LaunchOpts{Grid: gpusim.D1(n / 256), Block: gpusim.D1(256)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sub.launch(prog, d, "collatz", opts, IntPtr(out), Int(n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTranslateOpenACC(b *testing.B) {
	src := `
void vecadd(float *a, float *b, float *c, int n) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    c[i] = a[i] + b[i];
  }
}`
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := TranslateOpenACC(src); err != nil {
			b.Fatal(err)
		}
	}
}
