package labs

import (
	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
	"webgpu/internal/wb"
)

// Image Equalization (Table II row 7): atomic operations. Students write a
// histogram kernel (global atomics) and an apply kernel that maps pixels
// through the CDF-based correction function; the CDF itself is computed on
// the host by the harness, matching the course lab's structure.

func equalizeOracle(pix []byte) []byte {
	hist := make([]int, 256)
	for _, p := range pix {
		hist[p]++
	}
	n := float64(len(pix))
	cdf := make([]float64, 256)
	run := 0.0
	for i := 0; i < 256; i++ {
		run += float64(hist[i]) / n
		cdf[i] = run
	}
	cdfMin := cdf[0]
	for i := 1; i < 256 && cdfMin == 0; i++ {
		if cdf[i] > 0 {
			cdfMin = cdf[i]
		}
	}
	out := make([]byte, len(pix))
	for i, p := range pix {
		v := 255 * (cdf[p] - cdfMin) / (1 - cdfMin)
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		out[i] = byte(v)
	}
	return out
}

var labImageEqualization = register(&Lab{
	ID:      "image-equalization",
	Number:  7,
	Name:    "Image Equalization",
	Summary: "Atomic operations.",
	Description: `# Histogram Equalization

Equalize a grayscale image:

1. ` + "`histogram`" + `: build a 256-bin histogram of the pixel values using
   ` + "`atomicAdd`" + ` (use a grid-stride loop).
2. The harness computes the normalized CDF of the histogram on the host.
3. ` + "`equalize`" + `: map every pixel through the correction function
   ` + "`255 * (cdf[v] - cdfmin) / (1 - cdfmin)`" + `, clamped to [0, 255].
`,
	Dialect: minicuda.DialectCUDA,
	Skeleton: `#define HISTOGRAM_LENGTH 256
__global__ void histogram(unsigned char *input, int *bins, int len) {
  //@@ grid-stride loop with atomicAdd
}
__global__ void equalize(unsigned char *input, unsigned char *output,
                         float *cdf, float cdfmin, int len) {
  //@@ apply the correction function
}
`,
	Reference: `#define HISTOGRAM_LENGTH 256
__global__ void histogram(unsigned char *input, int *bins, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int stride = blockDim.x * gridDim.x;
  while (i < len) {
    atomicAdd(&bins[(int)input[i]], 1);
    i += stride;
  }
}
__global__ void equalize(unsigned char *input, unsigned char *output,
                         float *cdf, float cdfmin, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) {
    float v = 255.0f * (cdf[(int)input[i]] - cdfmin) / (1.0f - cdfmin);
    v = fminf(fmaxf(v, 0.0f), 255.0f);
    output[i] = (unsigned char)v;
  }
}
`,
	Questions: []string{
		"Why do we need atomicAdd in the histogram kernel?",
		"What is the effect of high contention on a single histogram bin?",
	},
	Courses:     []Course{CourseHPP, CourseECE408},
	NumDatasets: 3,
	Rubric:      defaultRubric("atomicAdd"),
	Generate: func(datasetID int) (*wb.Dataset, error) {
		shapes := [][2]int{{16, 16}, {31, 17}, {64, 48}}
		s := shapes[datasetID%len(shapes)]
		w, h := s[0], s[1]
		r := rng("image-equalization", datasetID)
		pix := make([]byte, w*h)
		// A low-contrast image so equalization does something visible.
		for i := range pix {
			pix[i] = byte(90 + r.Intn(80))
		}
		return &wb.Dataset{
			ID:       datasetID,
			Name:     "equalize",
			Inputs:   []wb.File{{Name: "input0.ppm", Data: wb.ImageBytes(pix, w, h)}},
			Expected: wb.File{Name: "output.ppm", Data: wb.ImageBytes(equalizeOracle(pix), w, h)},
		}, nil
	},
	Harness: func(rc *RunContext) wb.CheckResult {
		rc.RequireKernel("histogram", "equalize")
		pix, w, h := rc.Image(rc.Dataset.Input("input0.ppm"))
		n := len(pix)
		rc.Trace.Logf(wb.LevelTrace, "The image is %d x %d", w, h)

		inP := rc.Malloc(n)
		rc.MemcpyHtoD(inP, pix)
		binsP := rc.Malloc(256 * 4)
		rc.Launch("histogram", gpusim.D1(8), gpusim.D1(128),
			minicuda.UCharPtr(inP), minicuda.IntPtr(binsP), minicuda.Int(n))
		bins := rc.ReadInt32(binsP, 256)

		// Host-side CDF, as in the course harness.
		cdf := make([]float32, 256)
		run := float32(0)
		for i := 0; i < 256; i++ {
			run += float32(bins[i]) / float32(n)
			cdf[i] = run
		}
		cdfMin := cdf[0]
		for i := 1; i < 256 && cdfMin == 0; i++ {
			if cdf[i] > 0 {
				cdfMin = cdf[i]
			}
		}
		cdfP := rc.MallocFloat32(256, cdf)
		outP := rc.Malloc(n)
		rc.Launch("equalize", gpusim.D1(ceilDiv(n, 256)), gpusim.D1(256),
			minicuda.UCharPtr(inP), minicuda.UCharPtr(outP), minicuda.FloatPtr(cdfP),
			minicuda.Float(cdfMin), minicuda.Int(n))
		got := make([]byte, n)
		rc.MemcpyDtoH(got, outP)
		want, _, _ := rc.Image(rc.Dataset.Expected.Data)
		// +-1 slack absorbs float32-vs-float64 CDF rounding.
		return wb.CompareBytes(got, want, 1)
	},
})
