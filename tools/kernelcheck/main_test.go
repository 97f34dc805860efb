package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// interpRaceSrc hides both racing accesses inside device helpers, so
// only analysis through the callees' effect summaries can prove the race.
const interpRaceSrc = `__device__ void store(float *p, int i, float v) {
  p[i] = v;
}

__device__ float loadShift(float *p, int i) {
  return p[i + 1];
}

__global__ void shift(float *in, float *out, int n) {
  __shared__ float s[17];
  int tx = threadIdx.x;
  int i = blockIdx.x * blockDim.x + tx;
  store(s, tx, in[i]);
  out[i] = loadShift(s, tx);
}
`

const cleanSrc = `__global__ void vecAdd(float *a, float *b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    b[i] = a[i] + b[i];
  }
}
`

func writeKernel(t *testing.T, name, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCleanFileExitsZero(t *testing.T) {
	p := writeKernel(t, "clean.cu", cleanSrc)
	code, out, _ := runCLI(t, p)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "1 file(s), 0 diagnostic(s)") {
		t.Fatalf("summary missing:\n%s", out)
	}
}

func TestInterproceduralRaceFails(t *testing.T) {
	p := writeKernel(t, "race.cu", interpRaceSrc)
	code, out, _ := runCLI(t, p)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "error[KC-RACE-CALL]") {
		t.Fatalf("expected KC-RACE-CALL in output:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	p := writeKernel(t, "race.cu", interpRaceSrc)
	code, out, _ := runCLI(t, "-json", p)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var res struct {
		File         string `json:"file"`
		CompileError string `json:"compile_error"`
		Diagnostics  []struct {
			ID       string `json:"id"`
			Severity string `json:"severity"`
			Pos      string `json:"pos"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("not one JSON object per line: %v\n%s", err, out)
	}
	if res.File != p || len(res.Diagnostics) == 0 {
		t.Fatalf("json result = %+v", res)
	}
	d := res.Diagnostics[0]
	if d.ID != "KC-RACE-CALL" || d.Severity != "error" || d.Pos == "" {
		t.Fatalf("diagnostic = %+v", d)
	}
	// Field order is part of the contract (stable for diffing in CI logs).
	if !strings.HasPrefix(out, `{"file":`) {
		t.Fatalf("file field not first:\n%s", out)
	}
	idIdx := strings.Index(out, `"id":`)
	sevIdx := strings.Index(out, `"severity":`)
	posIdx := strings.Index(out, `"pos":`)
	if idIdx < 0 || sevIdx < idIdx || posIdx < sevIdx {
		t.Fatalf("diagnostic field order not id,severity,...,pos:\n%s", out)
	}
}

func TestJSONCompileError(t *testing.T) {
	p := writeKernel(t, "broken.cu", "__global__ void f(") // parse failure
	code, out, _ := runCLI(t, "-json", p)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (compile failures fail the run)", code)
	}
	var res struct {
		CompileError string          `json:"compile_error"`
		Diagnostics  json.RawMessage `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad json: %v\n%s", err, out)
	}
	if res.CompileError == "" {
		t.Fatalf("compile_error empty:\n%s", out)
	}
	if string(res.Diagnostics) != "[]" {
		t.Fatalf("diagnostics = %s, want [] (never null)", res.Diagnostics)
	}
}

func TestUsageAndIOExitTwo(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatalf("no args: exit = %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-fail-on", "bogus", "x.cu"); code != 2 {
		t.Fatalf("bad -fail-on: exit = %d, want 2", code)
	}
	if code, _, _ := runCLI(t, filepath.Join(t.TempDir(), "missing.cu")); code != 2 {
		t.Fatalf("unreadable path: exit = %d, want 2", code)
	}
	if code, _, _ := runCLI(t, t.TempDir()); code != 2 {
		t.Fatalf("dir with no kernels: exit = %d, want 2", code)
	}
}

func TestFailOnThreshold(t *testing.T) {
	// A divergent-barrier call is warn severity: passes at the default
	// threshold, fails at -fail-on warn.
	src := `__device__ void sync() {
  __syncthreads();
}

__global__ void k(float *in, float *out, int n) {
  int tx = threadIdx.x;
  if (tx < 8) {
    sync();
  }
  out[tx] = in[tx];
}
`
	p := writeKernel(t, "warn.cu", src)
	if code, out, _ := runCLI(t, p); code != 0 {
		t.Fatalf("default threshold: exit = %d, want 0\n%s", code, out)
	}
	code, out, _ := runCLI(t, "-fail-on", "warn", p)
	if code != 1 {
		t.Fatalf("-fail-on warn: exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "warn[KC-BARRIER-CALL-DIV]") {
		t.Fatalf("expected KC-BARRIER-CALL-DIV:\n%s", out)
	}
}
