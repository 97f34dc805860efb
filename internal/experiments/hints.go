package experiments

import (
	"context"
	"fmt"
	"strings"

	"webgpu/internal/feedback"
	"webgpu/internal/labs"
)

// Hints demonstrates the automated-feedback analyzer (the §VIII future
// work, implemented in internal/feedback) on a gallery of the classic
// student mistakes the course staff answered by hand on the forums.
func Hints() string {
	var sb strings.Builder
	sb.WriteString("== E1: automated feedback / on-demand hints (§VIII) ==\n\n")

	cases := []struct {
		title string
		labID string
		src   string
	}{
		{"missing bounds check", "vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = in1[i] + in2[i];
}`},
		{"__syncthreads in a divergent branch", "vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len) {
    __syncthreads();
    out[i] = in1[i] + in2[i];
  }
}`},
		{"misspelled builtin", "vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  syncthreads();
}`},
		{"infinite loop", "vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  float x = 0.0f;
  while (1) { x += 1.0f; }
  out[0] = x;
}`},
		{"off-by-one at the boundary", "vector-add", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < len - 1) out[i] = in1[i] + in2[i];
  else if (i < len) out[i] = 0.0f;
}`},
		{"correct but untiled (tiled-matmul lab)", "tiled-matmul", `__global__ void matrixMultiplyShared(float *A, float *B, float *C,
                               int numARows, int numACols, int numBCols) {
  int row = blockIdx.y * blockDim.y + threadIdx.y;
  int col = blockIdx.x * blockDim.x + threadIdx.x;
  if (row < numARows && col < numBCols) {
    float acc = 0.0f;
    for (int k = 0; k < numACols; k++)
      acc += A[row * numACols + k] * B[k * numBCols + col];
    C[row * numBCols + col] = acc;
  }
}`},
	}

	for _, c := range cases {
		l := labs.ByID(c.labID)
		o := labs.Run(context.Background(), l, c.src, 0, labs.NewDeviceSet(1), 200000)
		hints := feedback.Analyze(l, c.src, o)
		fmt.Fprintf(&sb, "%s:\n", c.title)
		if len(hints) == 0 {
			sb.WriteString("  (no hints)\n")
		} else {
			h := hints[0]
			fmt.Fprintf(&sb, "  [%.0f%%] %s — %s\n", 100*h.Confidence, h.Title, firstSentence(h.Detail))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("hints are served on demand at GET /api/v1/labs/{id}/hints from the\n")
	sb.WriteString("student's latest attempt and current code.\n")
	return sb.String()
}

func firstSentence(s string) string {
	if i := strings.Index(s, ". "); i > 0 {
		return s[:i+1]
	}
	return s
}
