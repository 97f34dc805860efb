package labs

import (
	"math"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Input Binning (Table II row 13): input binning and its performance
// effects. Points on [0,1) are binned into a uniform grid with atomics;
// a query kernel then finds each query's nearest input point by searching
// only the query's bin and its neighbours.

const binCount = 16

func binningOracle(points, queries []float32) []float32 {
	out := make([]float32, len(queries))
	for qi, q := range queries {
		best := float32(math.Inf(1))
		for _, p := range points {
			d := q - p
			if d < 0 {
				d = -d
			}
			if d < best {
				best = d
			}
		}
		out[qi] = best
	}
	return out
}

var labInputBinning = register(&Lab{
	ID:      "input-binning",
	Number:  13,
	Name:    "Input Binning",
	Summary: "Input Binning and performance effects.",
	Description: `# Input Binning

Given input points on [0, 1), build a uniform grid of 16 bins and use it
to answer nearest-neighbour queries without scanning all points.

1. ` + "`countBin`" + `: count the points per bin with ` + "`atomicAdd`" + `.
2. The harness exclusive-scans the counts into bin start offsets.
3. ` + "`scatterBin`" + `: write each point into its bin's region of the binned
   array, claiming slots with ` + "`atomicAdd`" + ` on a per-bin cursor.
4. ` + "`nearest`" + `: for each query, search the query's bin and the immediately
   adjacent bins, widening the radius until a neighbour is found, and
   output the distance to the nearest point.

The expected output is the nearest distance for each query (bins only
change *how fast* you find it, not the answer).
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `#define NUM_BINS 16
__global__ void countBin(float *points, int *counts, int n) {
  //@@ atomicAdd per point into its bin
}
__global__ void scatterBin(float *points, int *starts, int *cursors,
                           float *binned, int n) {
  //@@ claim a slot with atomicAdd(&cursors[b], 1) and write the point
}
__global__ void nearest(float *binned, int *starts, int *counts,
                        float *queries, float *out, int numQueries) {
  //@@ search outward from the query's bin
}
`,
	Reference: `#define NUM_BINS 16
__global__ void countBin(float *points, int *counts, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    int b = (int)(points[i] * NUM_BINS);
    b = min(b, NUM_BINS - 1);
    atomicAdd(&counts[b], 1);
  }
}
__global__ void scatterBin(float *points, int *starts, int *cursors,
                           float *binned, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    int b = (int)(points[i] * NUM_BINS);
    b = min(b, NUM_BINS - 1);
    int slot = atomicAdd(&cursors[b], 1);
    binned[starts[b] + slot] = points[i];
  }
}
__global__ void nearest(float *binned, int *starts, int *counts,
                        float *queries, float *out, int numQueries) {
  int qi = blockIdx.x * blockDim.x + threadIdx.x;
  if (qi >= numQueries) return;
  float q = queries[qi];
  int home = (int)(q * NUM_BINS);
  home = min(home, NUM_BINS - 1);
  float best = 1.0e30f;
  float binWidth = 1.0f / NUM_BINS;
  for (int radius = 0; radius < NUM_BINS; radius++) {
    // A point in a bin at this ring is at least (radius-1)*binWidth away,
    // so once that bound exceeds the best distance we can stop.
    if ((float)(radius - 1) * binWidth > best) break;
    int lo = home - radius;
    int hi = home + radius;
    for (int b = lo; b <= hi; b++) {
      if (b < 0 || b >= NUM_BINS) continue;
      if (b != lo && b != hi) continue; // only the ring at this radius
      for (int k = 0; k < counts[b]; k++) {
        float d = fabsf(q - binned[starts[b] + k]);
        if (d < best) best = d;
      }
    }
  }
  out[qi] = best;
}
`,
	Questions: []string{
		"Why must the search continue one ring past the first non-empty bin?",
		"How does binning change the asymptotic cost of a nearest-neighbour query?",
	},
	Courses:     []Course{CourseECE598, CoursePUMPS},
	NumDatasets: 3,
	Rubric:      defaultRubric("atomicAdd"),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		sizes := [][2]int{{32, 8}, {128, 32}, {400, 64}}
		s := sizes[datasetID%len(sizes)]
		np, nq := s[0], s[1]
		r := rng("input-binning", datasetID)
		points := make([]float32, np)
		for i := range points {
			points[i] = float32(r.Float64())
		}
		queries := make([]float32, nq)
		for i := range queries {
			queries[i] = float32(r.Float64())
		}
		return &wb.Dataset{
			ID:   datasetID,
			Name: "binning",
			Inputs: []wb.File{
				{Name: "points.raw", Data: wb.VectorBytes(points)},
				{Name: "queries.raw", Data: wb.VectorBytes(queries)},
			},
			Expected: wb.File{Name: "output.raw", Data: wb.VectorBytes(binningOracle(points, queries))},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("countBin", "scatterBin", "nearest")
		points := rc.Vector(rc.Input("points.raw"))
		queries := rc.Vector(rc.Input("queries.raw"))
		n, nq := len(points), len(queries)
		rc.Trace.Logf(wb.LevelTrace, "%d points, %d queries, %d bins", n, nq, binCount)

		ptsP := rc.ToDevice(points)
		countsP := rc.Malloc(binCount * 4)
		rc.Launch("countBin", gpusim.D1(ceilDiv(n, 128)), gpusim.D1(128),
			minicuda.FloatPtr(ptsP), minicuda.IntPtr(countsP), minicuda.Int(n))
		counts := rc.ReadInt32(countsP, binCount)
		starts := make([]int32, binCount)
		var run int32
		for i, c := range counts {
			starts[i] = run
			run += c
		}
		startsP := rc.MallocInt32(binCount, starts)
		cursorsP := rc.Malloc(binCount * 4)
		binnedP := rc.Malloc(n * 4)
		rc.Launch("scatterBin", gpusim.D1(ceilDiv(n, 128)), gpusim.D1(128),
			minicuda.FloatPtr(ptsP), minicuda.IntPtr(startsP), minicuda.IntPtr(cursorsP),
			minicuda.FloatPtr(binnedP), minicuda.Int(n))
		qP := rc.ToDevice(queries)
		outP := rc.Malloc(nq * 4)
		rc.Launch("nearest", gpusim.D1(ceilDiv(nq, 64)), gpusim.D1(64),
			minicuda.FloatPtr(binnedP), minicuda.IntPtr(startsP), minicuda.IntPtr(countsP),
			minicuda.FloatPtr(qP), minicuda.FloatPtr(outP), minicuda.Int(nq))
		got := rc.ReadBack(outP, nq)
		want := rc.Vector(rc.Dataset.Expected.Data)
		return wb.CompareFloats(got, want, wb.DefaultTolerance)
	},
})
