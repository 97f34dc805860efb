package platform

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"webgpu/internal/webserver"
)

// TestAnalysisEndToEnd drives one curated vector-add variant per
// analyzer pass through the complete platform — submit over HTTP, job
// through the broker, result back — and asserts the submission response
// carries the expected diagnostic and the grade feedback repeats it.
func TestAnalysisEndToEnd(t *testing.T) {
	p := New(Options{Workers: 2})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	variants := []struct {
		pass   string
		rule   string
		source string
	}{
		{"barrier-divergence", "KC-BARRIER-DIV", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (threadIdx.x < 32) {
    __syncthreads();
  }
  if (i < len) {
    out[i] = in1[i] + in2[i];
  }
}
`},
		{"shared-race", "KC-RACE", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  __shared__ float s[257];
  int tx = threadIdx.x;
  int i = blockIdx.x * blockDim.x + tx;
  s[tx] = in1[i];
  out[i] = s[tx + 1] + in2[i];
}
`},
		{"bounds", "KC-OOB", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  __shared__ float s[32];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  s[40] = 1.0f;
  if (i < len) {
    out[i] = in1[i] + in2[i];
  }
}
`},
		{"performance", "KC-BANK", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  __shared__ float sh[512];
  int tx = threadIdx.x;
  int i = blockIdx.x * blockDim.x + tx;
  sh[tx * 2] = 1.0f;
  if (i < len) {
    out[i] = in1[i] + in2[i];
  }
}
`},
		{"hygiene", "KC-UNUSED", `__global__ void vecAdd(float *in1, float *in2, float *out, int len) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int spare = len * 2;
  if (i < len) {
    out[i] = in1[i] + in2[i];
  }
}
`},
	}

	for vi, v := range variants {
		v := v
		t.Run(v.pass, func(t *testing.T) {
			// One account per variant sidesteps the submission rate limit.
			c := newClient(t, ts.URL)
			c.register(v.pass, fmt.Sprintf("kc%d@example.edu", vi), "student")
			var sub webserver.SubmissionRec
			c.mustDo("POST", "/api/v1/labs/vector-add/submit",
				map[string]string{"source": v.source}, &sub)

			found := false
			for _, d := range sub.Diagnostics {
				if d.ID == v.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("submission response missing %s; got %+v", v.rule, sub.Diagnostics)
			}
			if sub.Grade == nil {
				t.Fatal("no grade on submission")
			}
			inFeedback := false
			for _, line := range sub.Grade.Feedback {
				if strings.Contains(line, v.rule) {
					inFeedback = true
				}
			}
			if !inFeedback {
				t.Errorf("grade feedback missing %s: %v", v.rule, sub.Grade.Feedback)
			}
			if sub.AnalysisBlocked {
				t.Error("warn-only default blocked execution")
			}
		})
	}

	// The shared metrics registry saw the per-rule fires, and the
	// dashboard enumerates the diagnostics artifact kind (even if its
	// hit count is still zero).
	if got := p.Metrics().Counter("kernelcheck_fire_kc_race"); got < 1 {
		t.Errorf("kernelcheck_fire_kc_race = %g, want >= 1", got)
	}
	out := p.Status().Render()
	if !strings.Contains(out, "diagnostics hits") {
		t.Errorf("dashboard missing the diagnostics artifact kind:\n%s", out)
	}
	if !strings.Contains(out, "kernelcheck:") {
		t.Errorf("dashboard missing the kernelcheck line:\n%s", out)
	}
}
