package labs

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// 2D Convolution (Table II row 5): constant memory for the mask and
// shared-memory input tiles with halo cells.

const convMaskWidth = 5

var labConvolution2D = register(&Lab{
	ID:      "convolution-2d",
	Number:  5,
	Name:    "2D Convolution",
	Summary: "Constant memory and shared memory.",
	Description: `# 2D Convolution

Implement a 2D convolution of an image with a 5x5 mask. The mask is placed
in ` + "`__constant__`" + ` memory by the harness; stage the input tile (with its
halo) in shared memory.

Ghost cells outside the image boundary are treated as zero.
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `#define MASK_WIDTH 5
#define MASK_RADIUS 2
#define TILE_WIDTH 8
__constant__ float M[MASK_WIDTH][MASK_WIDTH];
__global__ void convolution2D(float *in, float *out, int height, int width) {
  //@@ Insert code to implement 2D convolution with shared memory here
}
`,
	Reference: `#define MASK_WIDTH 5
#define MASK_RADIUS 2
#define TILE_WIDTH 8
__constant__ float M[MASK_WIDTH][MASK_WIDTH];
__global__ void convolution2D(float *in, float *out, int height, int width) {
  __shared__ float tile[12][12];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int col = blockIdx.x * TILE_WIDTH + tx;
  int row = blockIdx.y * TILE_WIDTH + ty;
  // Cooperative load of the TILE+halo region (12x12) by the 8x8 block.
  for (int dy = ty; dy < TILE_WIDTH + 2 * MASK_RADIUS; dy += TILE_WIDTH) {
    for (int dx = tx; dx < TILE_WIDTH + 2 * MASK_RADIUS; dx += TILE_WIDTH) {
      int r = blockIdx.y * TILE_WIDTH + dy - MASK_RADIUS;
      int c = blockIdx.x * TILE_WIDTH + dx - MASK_RADIUS;
      if (r >= 0 && r < height && c >= 0 && c < width)
        tile[dy][dx] = in[r * width + c];
      else
        tile[dy][dx] = 0.0f;
    }
  }
  __syncthreads();
  if (row < height && col < width) {
    float acc = 0.0f;
    for (int i = 0; i < MASK_WIDTH; i++)
      for (int j = 0; j < MASK_WIDTH; j++)
        acc += M[i][j] * tile[ty + i][tx + j];
    out[row * width + col] = acc;
  }
}
`,
	Questions: []string{
		"Why is the mask a good fit for constant memory?",
		"How many halo elements does each block load for an 8x8 tile and 5x5 mask?",
	},
	Courses:     []Course{CourseHPP, CourseECE408},
	NumDatasets: 4,
	Rubric:      defaultRubric("__constant__", "__shared__"),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		shapes := [][2]int{{8, 8}, {16, 12}, {23, 17}, {40, 32}}
		s := shapes[datasetID%len(shapes)]
		h, w := s[0], s[1]
		r := rng("convolution-2d", datasetID)
		img := make([]float32, h*w)
		for i := range img {
			img[i] = float32(r.Intn(256)) / 32
		}
		mask := make([]float32, convMaskWidth*convMaskWidth)
		var msum float32
		for i := range mask {
			mask[i] = float32(r.Intn(8)) / 16
			msum += mask[i]
		}
		if msum == 0 {
			mask[12] = 1
		}
		want := make([]float32, h*w)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				var acc float32
				for i := 0; i < convMaskWidth; i++ {
					for j := 0; j < convMaskWidth; j++ {
						ry := y + i - convMaskWidth/2
						rx := x + j - convMaskWidth/2
						if ry >= 0 && ry < h && rx >= 0 && rx < w {
							acc += mask[i*convMaskWidth+j] * img[ry*w+rx]
						}
					}
				}
				want[y*w+x] = acc
			}
		}
		return &wb.Dataset{
			ID:   datasetID,
			Name: "conv2d",
			Inputs: []wb.File{
				{Name: "input0.raw", Data: wb.MatrixBytes(img, h, w)},
				{Name: "mask.raw", Data: wb.MatrixBytes(mask, convMaskWidth, convMaskWidth)},
			},
			Expected: wb.File{Name: "output.raw", Data: wb.MatrixBytes(want, h, w)},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("convolution2D")
		img, h, w := rc.Matrix(rc.Input("input0.raw"))
		mask, mh, mw := rc.Matrix(rc.Input("mask.raw"))
		if mh != convMaskWidth || mw != convMaskWidth {
			rc.Fail(errDims(mh, convMaskWidth))
		}
		rc.Trace.Logf(wb.LevelTrace, "The image is %d x %d", h, w)
		rc.LoadConstant("M", gpusim.Float32Bytes(mask))
		inP := rc.ToDevice(img)
		outP := rc.Malloc(h * w * 4)
		rc.Launch("convolution2D",
			gpusim.D2(ceilDiv(w, 8), ceilDiv(h, 8)), gpusim.D2(8, 8),
			minicuda.FloatPtr(inP), minicuda.FloatPtr(outP),
			minicuda.Int(h), minicuda.Int(w))
		got := rc.ReadBack(outP, h*w)
		want, _, _ := rc.Matrix(rc.Dataset.Expected.Data)
		return wb.CompareFloats(got, want, wb.DefaultTolerance)
	},
})
