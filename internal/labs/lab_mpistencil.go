package labs

import (
	"fmt"
	"time"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/mpi"
	"webgpu/internal/wb"
)

// Multi-GPU Stencil with MPI (Table II row 15): multi-GPU programming and
// MPI. A 1D diffusion stencil is iterated over a vector partitioned into
// strips, one strip per (simulated) GPU; after every iteration the strip
// owners exchange one-element halos over the MPI substrate. The lab is
// tagged so the broker only dispatches it to workers advertising both
// "mpi" and "multi-gpu" (§VI-A).

const (
	mpiStencilRanks = 2
	mpiStencilIters = 8
)

func mpiStencilOracle(in []float32, iters int) []float32 {
	cur := append([]float32(nil), in...)
	next := make([]float32, len(in))
	for it := 0; it < iters; it++ {
		for i := range cur {
			var l, r float32
			if i > 0 {
				l = cur[i-1]
			}
			if i < len(cur)-1 {
				r = cur[i+1]
			}
			next[i] = 0.25*l + 0.5*cur[i] + 0.25*r
		}
		cur, next = next, cur
	}
	return cur
}

var labMPIStencil = register(&Lab{
	ID:      "mpi-stencil",
	Number:  15,
	Name:    "Multi-GPU Stencil with MPI",
	Summary: "Multi-GPU programming and MPI.",
	Description: `# Multi-GPU Stencil with MPI

Iterate the diffusion stencil

    out[i] = 0.25*in[i-1] + 0.5*in[i] + 0.25*in[i+1]

for 8 iterations over a vector split into two strips, one per GPU/MPI
rank. Each strip is stored with one halo cell on each side; after every
iteration the ranks exchange boundary values with their neighbours using
MPI send/recv before the next kernel launch.

Your kernel computes one strip given its halo-padded input. The MPI
choreography is in the harness — study it: the deadlock-free ordering of
sends and receives is the point of this lab.
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `__global__ void stencilStrip(float *in, float *out, int n) {
  // in and out have n+2 elements: in[0] and in[n+1] are halo cells.
  //@@ compute out[1..n] from in
}
`,
	Reference: `__global__ void stencilStrip(float *in, float *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x + 1;
  if (i <= n) {
    out[i] = 0.25f * in[i - 1] + 0.5f * in[i] + 0.25f * in[i + 1];
  }
}
`,
	Questions: []string{
		"Why must halo exchange complete before the next kernel launch?",
		"How does the communication-to-computation ratio change with strip width?",
	},
	Courses:      []Course{CourseECE598},
	Requirements: []string{ReqMPI, ReqMultiGPU},
	NumDatasets:  3,
	NumGPUs:      mpiStencilRanks,
	Rubric:       defaultRubric(),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		sizes := []int{32, 128, 512} // multiples of the rank count
		n := sizes[datasetID%len(sizes)]
		r := rng("mpi-stencil", datasetID)
		in := make([]float32, n)
		for i := range in {
			in[i] = float32(r.Intn(256)) / 16
		}
		return &wb.Dataset{
			ID:       datasetID,
			Name:     "mpistencil",
			Inputs:   []wb.File{{Name: "input0.raw", Data: wb.VectorBytes(in)}},
			Expected: wb.File{Name: "output.raw", Data: wb.VectorBytes(mpiStencilOracle(in, mpiStencilIters))},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("stencilStrip")
		if len(rc.Devices) < mpiStencilRanks {
			rc.Fail(fmt.Errorf("labs: mpi-stencil needs %d GPUs, worker has %d",
				mpiStencilRanks, len(rc.Devices)))
		}
		in := rc.Vector(rc.Input("input0.raw"))
		n := len(in)
		if n%mpiStencilRanks != 0 {
			rc.Fail(fmt.Errorf("labs: input length %d not divisible by %d ranks",
				n, mpiStencilRanks))
		}
		local := n / mpiStencilRanks
		rc.Trace.Logf(wb.LevelTrace, "%d elements over %d ranks (%d each), %d iterations",
			n, mpiStencilRanks, local, mpiStencilIters)

		world, err := mpi.NewWorld(mpiStencilRanks)
		if err != nil {
			rc.Fail(err)
		}
		results := make([][]float32, mpiStencilRanks)
		// Each rank keeps its own launch times; they join the run log in
		// rank order after the world finishes, so the log does not depend
		// on how the ranks interleaved.
		spans := make([][]time.Duration, mpiStencilRanks)
		err = world.Run(func(c *mpi.Comm) error {
			rank := c.Rank()
			dev := rc.Devices[rank]
			strip := make([]float32, local+2) // halo-padded
			copy(strip[1:local+1], in[rank*local:(rank+1)*local])
			inP, err := dev.MallocFloat32(local+2, strip)
			if err != nil {
				return err
			}
			outP, err := dev.Malloc((local + 2) * 4)
			if err != nil {
				return err
			}
			for it := 0; it < mpiStencilIters; it++ {
				// Halo exchange: even ranks send right first; odd ranks
				// receive first — a deadlock-free ordering.
				edge, err := dev.ReadFloat32(inP, local+2)
				if err != nil {
					return err
				}
				leftVal, rightVal := float32(0), float32(0)
				exchange := func() error {
					if rank%2 == 0 {
						if rank+1 < c.Size() {
							if err := c.SendFloat32s(rank+1, it, edge[local:local+1]); err != nil {
								return err
							}
							h, err := c.RecvFloat32s(rank+1, it)
							if err != nil {
								return err
							}
							rightVal = h[0]
						}
						if rank-1 >= 0 {
							if err := c.SendFloat32s(rank-1, it, edge[1:2]); err != nil {
								return err
							}
							h, err := c.RecvFloat32s(rank-1, it)
							if err != nil {
								return err
							}
							leftVal = h[0]
						}
					} else {
						if rank-1 >= 0 {
							h, err := c.RecvFloat32s(rank-1, it)
							if err != nil {
								return err
							}
							leftVal = h[0]
							if err := c.SendFloat32s(rank-1, it, edge[1:2]); err != nil {
								return err
							}
						}
						if rank+1 < c.Size() {
							h, err := c.RecvFloat32s(rank+1, it)
							if err != nil {
								return err
							}
							rightVal = h[0]
							if err := c.SendFloat32s(rank+1, it, edge[local:local+1]); err != nil {
								return err
							}
						}
					}
					return nil
				}
				if err := exchange(); err != nil {
					return err
				}
				if err := dev.MemcpyHtoD(inP, gpusim.Float32Bytes([]float32{leftVal})); err != nil {
					return err
				}
				if err := dev.MemcpyHtoD(inP.Offset((local+1)*4),
					gpusim.Float32Bytes([]float32{rightVal})); err != nil {
					return err
				}
				stats, err := rc.Program.Launch(dev, "stencilStrip",
					rc.Opts(gpusim.D1(ceilDiv(local, 64)), gpusim.D1(64)),
					minicuda.FloatPtr(inP), minicuda.FloatPtr(outP), minicuda.Int(local))
				if stats != nil {
					spans[rank] = append(spans[rank], stats.SimTime)
				}
				if err != nil {
					return err
				}
				inP, outP = outP, inP
			}
			final, err := dev.ReadFloat32(inP, local+2)
			if err != nil {
				return err
			}
			results[rank] = final[1 : local+1]
			return nil
		})
		for rank, times := range spans {
			for it, d := range times {
				rc.Trace.RecordSpan(wb.TimeCompute, fmt.Sprintf("rank %d iteration %d", rank, it), d)
			}
		}
		if err != nil {
			rc.Fail(err)
		}
		var got []float32
		for _, part := range results {
			got = append(got, part...)
		}
		want := rc.Vector(rc.Dataset.Expected.Data)
		return wb.CompareFloats(got, want, wb.DefaultTolerance)
	},
})
