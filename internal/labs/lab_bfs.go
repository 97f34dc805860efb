package labs

import (
	"fmt"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// BFS Queuing (Table II row 14): hierarchical queuing performance effects.
// Frontier-based breadth-first search where each level's kernel builds the
// next frontier in a block-level shared-memory queue that is flushed into
// the global queue — the hierarchical queue pattern from lecture.

func bfsOracle(rowPtr, colIdx []int32, src int) []int32 {
	n := len(rowPtr) - 1
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	frontier := []int32{int32(src)}
	for depth := int32(1); len(frontier) > 0; depth++ {
		var next []int32
		for _, u := range frontier {
			for e := rowPtr[u]; e < rowPtr[u+1]; e++ {
				v := colIdx[e]
				if level[v] == -1 {
					level[v] = depth
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return level
}

var labBFS = register(&Lab{
	ID:      "bfs-queuing",
	Number:  14,
	Name:    "BFS Queuing",
	Summary: "Hierarchical queuing performance effects.",
	Description: `# BFS with Hierarchical Queues

Implement one level of frontier-based BFS: each thread takes a node from
the current frontier, marks unvisited neighbours (claim them with
` + "`atomicCAS`" + ` on the level array), and appends them to the next frontier.

Use a **hierarchical queue**: append first to a per-block queue in shared
memory; when the block finishes (or its queue fills), reserve a region of
the global queue with a single ` + "`atomicAdd`" + ` and flush. The harness loops
levels until the frontier is empty. Output is each node's BFS level
(-1 when unreachable).
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `#define BQ_CAP 64
__global__ void bfsLevel(int *rowPtr, int *colIdx, int *levels,
                         int *frontier, int frontierSize,
                         int *nextFrontier, int *nextSize, int depth) {
  __shared__ int blockQueue[BQ_CAP];
  __shared__ int blockCount;
  //@@ hierarchical-queue BFS level
}
`,
	Reference: `#define BQ_CAP 64
__global__ void bfsLevel(int *rowPtr, int *colIdx, int *levels,
                         int *frontier, int frontierSize,
                         int *nextFrontier, int *nextSize, int depth) {
  __shared__ int blockQueue[BQ_CAP];
  __shared__ int blockCount;
  __shared__ int globalBase;
  if (threadIdx.x == 0) blockCount = 0;
  __syncthreads();
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < frontierSize) {
    int u = frontier[i];
    for (int e = rowPtr[u]; e < rowPtr[u + 1]; e++) {
      int v = colIdx[e];
      if (atomicCAS(&levels[v], -1, depth) == -1) {
        int pos = atomicAdd(&blockCount, 1);
        if (pos < BQ_CAP) {
          blockQueue[pos] = v;
        } else {
          // Block queue overflow: spill directly to the global queue.
          int g = atomicAdd(nextSize, 1);
          nextFrontier[g] = v;
        }
      }
    }
  }
  __syncthreads();
  int produced = min(blockCount, BQ_CAP);
  if (threadIdx.x == 0) {
    globalBase = atomicAdd(nextSize, produced);
  }
  __syncthreads();
  for (int k = threadIdx.x; k < produced; k += blockDim.x) {
    nextFrontier[globalBase + k] = blockQueue[k];
  }
}
`,
	Questions: []string{
		"Why does the block-level queue reduce contention on the global queue pointer?",
		"Why is atomicCAS (not a plain write) needed when claiming a neighbour?",
	},
	Courses:     []Course{CourseECE598, CoursePUMPS},
	NumDatasets: 3,
	Rubric:      defaultRubric("atomicCAS", "__shared__"),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		sizes := []int{16, 64, 200}
		n := sizes[datasetID%len(sizes)]
		r := rng("bfs-queuing", datasetID)
		// Random sparse digraph: ~3 out-edges per node, plus a spanning
		// chain so most nodes are reachable.
		adj := make([][]int32, n)
		for u := 1; u < n; u++ {
			if r.Intn(4) > 0 { // most nodes chained in
				p := r.Intn(u)
				adj[p] = append(adj[p], int32(u))
			}
		}
		for u := 0; u < n; u++ {
			for k := 0; k < 2; k++ {
				adj[u] = append(adj[u], int32(r.Intn(n)))
			}
		}
		rowPtr := make([]int32, n+1)
		var colIdx []int32
		for u := 0; u < n; u++ {
			colIdx = append(colIdx, adj[u]...)
			rowPtr[u+1] = int32(len(colIdx))
		}
		want := bfsOracle(rowPtr, colIdx, 0)
		return &wb.Dataset{
			ID:   datasetID,
			Name: "bfs",
			Inputs: []wb.File{
				{Name: "rowptr.raw", Data: wb.IntVectorBytes(rowPtr)},
				{Name: "colidx.raw", Data: wb.IntVectorBytes(colIdx)},
			},
			Expected: wb.File{Name: "output.raw", Data: wb.IntVectorBytes(want)},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("bfsLevel")
		rowPtr := rc.IntVector(rc.Input("rowptr.raw"))
		colIdx := rc.IntVector(rc.Input("colidx.raw"))
		n := len(rowPtr) - 1
		rc.Trace.Logf(wb.LevelTrace, "The graph has %d nodes and %d edges", n, len(colIdx))
		rowP := rc.MallocInt32(len(rowPtr), rowPtr)
		colP := rc.MallocInt32(maxI(len(colIdx), 1), colIdx)
		levels := make([]int32, n)
		for i := range levels {
			levels[i] = -1
		}
		levels[0] = 0
		levP := rc.MallocInt32(n, levels)
		curP := rc.MallocInt32(n+1, []int32{0}) // frontier = {src}
		nextP := rc.MallocInt32(n+1, nil)
		sizeP := rc.Malloc(4)
		frontierSize := 1
		for depth := 1; frontierSize > 0 && depth <= n+1; depth++ {
			rc.Memset(sizeP, 0, 4)
			rc.Launch("bfsLevel",
				gpusim.D1(ceilDiv(frontierSize, 64)), gpusim.D1(64),
				minicuda.IntPtr(rowP), minicuda.IntPtr(colP), minicuda.IntPtr(levP),
				minicuda.IntPtr(curP), minicuda.Int(frontierSize),
				minicuda.IntPtr(nextP), minicuda.IntPtr(sizeP), minicuda.Int(depth))
			sz := rc.ReadInt32(sizeP, 1)
			if int(sz[0]) > n {
				rc.Fail(fmt.Errorf("labs: bfs produced frontier of %d > %d nodes", sz[0], n))
			}
			frontierSize = int(sz[0])
			curP, nextP = nextP, curP
		}
		got := rc.ReadInt32(levP, n)
		want := rc.IntVector(rc.Dataset.Expected.Data)
		return wb.CompareInts(got, want)
	},
})
