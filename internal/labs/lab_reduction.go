package labs

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Reduction and Scan (Table II row 6): floating-point, work-efficiency,
// tree-like structures. The lab has two kernels: a block reduction that
// accumulates into a single total, and a work-efficient (Blelloch) scan
// with a block-sum fixup pass.

var labReductionScan = register(&Lab{
	ID:      "reduction-scan",
	Number:  6,
	Name:    "Reduction and Scan",
	Summary: "Floating-point, work-efficiency, tree-like structures.",
	Description: `# Reduction and Scan

Part 1: implement ` + "`total`" + `, a tree reduction that sums the input vector.
Each 256-thread block reduces 512 elements in shared memory and the first
thread atomically accumulates the block total into ` + "`output[0]`" + `.

Part 2: implement ` + "`scan`" + `, a work-efficient inclusive prefix sum over one
512-element section per block, and ` + "`addScannedBlockSums`" + ` which adds the
scanned block sums to the following sections (the harness scans the block
sums on the host, as in the course lab).
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `#define BLOCK_SIZE 256
__global__ void total(float *input, float *output, int len) {
  //@@ Part 1: tree reduction with an atomic accumulation
}
__global__ void scan(float *input, float *output, float *blockSums, int len) {
  //@@ Part 2: work-efficient scan of one 2*BLOCK_SIZE section per block
}
__global__ void addScannedBlockSums(float *output, float *blockSums, int len) {
  //@@ Part 2: add blockSums[b-1] to every element of section b
}
`,
	Reference: `#define BLOCK_SIZE 256
__global__ void total(float *input, float *output, int len) {
  __shared__ float partial[BLOCK_SIZE];
  int t = threadIdx.x;
  int i = blockIdx.x * blockDim.x * 2 + threadIdx.x;
  float sum = 0.0f;
  if (i < len) sum += input[i];
  if (i + blockDim.x < len) sum += input[i + blockDim.x];
  partial[t] = sum;
  for (int stride = blockDim.x / 2; stride >= 1; stride /= 2) {
    __syncthreads();
    if (t < stride) partial[t] += partial[t + stride];
  }
  if (t == 0) atomicAdd(output, partial[0]);
}
__global__ void scan(float *input, float *output, float *blockSums, int len) {
  __shared__ float T[2 * BLOCK_SIZE];
  int t = threadIdx.x;
  int start = 2 * blockIdx.x * BLOCK_SIZE;
  T[2 * t] = (start + 2 * t < len) ? input[start + 2 * t] : 0.0f;
  T[2 * t + 1] = (start + 2 * t + 1 < len) ? input[start + 2 * t + 1] : 0.0f;
  int stride = 1;
  while (stride < 2 * BLOCK_SIZE) {
    __syncthreads();
    int index = (t + 1) * stride * 2 - 1;
    if (index < 2 * BLOCK_SIZE && index - stride >= 0)
      T[index] += T[index - stride];
    stride = stride * 2;
  }
  stride = BLOCK_SIZE / 2;
  while (stride > 0) {
    __syncthreads();
    int index = (t + 1) * stride * 2 - 1;
    if (index + stride < 2 * BLOCK_SIZE)
      T[index + stride] += T[index];
    stride = stride / 2;
  }
  __syncthreads();
  if (start + 2 * t < len) output[start + 2 * t] = T[2 * t];
  if (start + 2 * t + 1 < len) output[start + 2 * t + 1] = T[2 * t + 1];
  if (t == 0) blockSums[blockIdx.x] = T[2 * BLOCK_SIZE - 1];
}
__global__ void addScannedBlockSums(float *output, float *blockSums, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) {
    int section = i / (2 * BLOCK_SIZE);
    if (section > 0) output[i] += blockSums[section - 1];
  }
}
`,
	Questions: []string{
		"Why does the work-efficient scan perform O(n) additions while the naive scan performs O(n log n)?",
		"Why can floating-point reduction give slightly different results than a sequential sum?",
	},
	Courses:     []Course{CourseHPP, CourseECE408},
	NumDatasets: 4,
	Rubric:      defaultRubric("__shared__", "atomicAdd"),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		sizes := []int{64, 512, 1000, 2048}
		n := sizes[datasetID%len(sizes)]
		r := rng("reduction-scan", datasetID)
		in := make([]float32, n)
		scanOut := make([]float32, n)
		var run float32
		var sum float32
		for i := range in {
			in[i] = float32(r.Intn(16)) / 4
			sum += in[i]
			run += in[i]
			scanOut[i] = run
		}
		// Expected output layout: element 0 is the reduction total, the
		// remaining n elements are the inclusive scan.
		want := append([]float32{sum}, scanOut...)
		return &wb.Dataset{
			ID:       datasetID,
			Name:     "reduction-scan",
			Inputs:   []wb.File{{Name: "input0.raw", Data: wb.VectorBytes(in)}},
			Expected: wb.File{Name: "output.raw", Data: wb.VectorBytes(want)},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("total", "scan", "addScannedBlockSums")
		in := rc.Vector(rc.Input("input0.raw"))
		n := len(in)
		rc.Trace.Logf(wb.LevelTrace, "The input length is %d", n)
		inP := rc.ToDevice(in)
		const blockSize = 256
		sections := ceilDiv(n, 2*blockSize)

		totalP := rc.Malloc(4)
		rc.Launch("total", gpusim.D1(sections), gpusim.D1(blockSize),
			minicuda.FloatPtr(inP), minicuda.FloatPtr(totalP), minicuda.Int(n))
		total := rc.ReadFloat32(totalP, 1)[0]

		outP := rc.Malloc(n * 4)
		sumsP := rc.Malloc(sections * 4)
		rc.Launch("scan", gpusim.D1(sections), gpusim.D1(blockSize),
			minicuda.FloatPtr(inP), minicuda.FloatPtr(outP), minicuda.FloatPtr(sumsP),
			minicuda.Int(n))
		sums := rc.ReadFloat32(sumsP, sections)
		for i := 1; i < len(sums); i++ {
			sums[i] += sums[i-1]
		}
		rc.MemcpyHtoD(sumsP, gpusim.Float32Bytes(sums))
		rc.Launch("addScannedBlockSums",
			gpusim.D1(ceilDiv(n, blockSize)), gpusim.D1(blockSize),
			minicuda.FloatPtr(outP), minicuda.FloatPtr(sumsP), minicuda.Int(n))
		scanned := rc.ReadBack(outP, n)

		got := append([]float32{total}, scanned...)
		want := rc.Vector(rc.Dataset.Expected.Data)
		return wb.CompareFloats(got, want, wb.DefaultTolerance)
	},
})
