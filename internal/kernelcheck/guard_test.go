package kernelcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"webgpu/internal/gpusim"
	"webgpu/internal/minicuda"
)

// The differential guard: every corpus kernel the analyzer marks with a
// *provable* (error-severity) race or out-of-bounds access must
// actually misbehave on the simulator — trap, or produce
// schedule-dependent output across two scheduler seeds. This keeps the
// "provable" tier honest: a diagnostic the simulator cannot reproduce
// is either a false positive or belongs in the warn tier.
//
// A //GUARD: directive in the kernel source opts it into execution:
//
//	//GUARD: expect=trap|nondet kernel=<name> grid=<G> block=<B> n=<N>
//
// Guard kernels use the (float *in, float *out, int n) skeleton. Only
// barrier-free kernels may carry expect=nondet: SchedSeed permutes the
// order in which a block's threads are called, and it is only the
// barrier-free launch whose threads are called one after the other. (A
// barrier kernel's threads take turns in ascending order, so a race in one
// is reproducible, not schedule-dependent, and shows no nondeterminism to
// expect.)

var guardRe = regexp.MustCompile(`//GUARD:\s*expect=(trap|nondet)\s+kernel=(\w+)\s+grid=(\d+)\s+block=(\d+)\s+n=(\d+)`)

// guardExempt lists corpus kernels with error-severity diagnostics that
// the guard cannot execute, with the reason.
var guardExempt = map[string]string{
	// Every thread writes s[0] and immediately reads it back; on the
	// serial path the read always sees the thread's own write, so the
	// output is order-independent even though the race is real.
	"race_ww_shared": "serial read-back of own write is order-independent",
	// Same shape: the plain store, atomic add, and read happen inside
	// one thread's serial slice, and addition commutes across threads.
	"race_atomic_mixed": "atomic accumulation is order-independent",
	// Documented false positive: safe at blockDim.x == 32, and the
	// corpus golden records exactly that.
	"known_limit_split_fill": "known false positive (launch geometry unknown)",
}

type guardSpec struct {
	expect string
	kernel string
	grid   int
	block  int
	n      int
}

func parseGuard(src string) *guardSpec {
	m := guardRe.FindStringSubmatch(src)
	if m == nil {
		return nil
	}
	g, _ := strconv.Atoi(m[3])
	b, _ := strconv.Atoi(m[4])
	n, _ := strconv.Atoi(m[5])
	return &guardSpec{expect: m[1], kernel: m[2], grid: g, block: b, n: n}
}

func runGuard(t *testing.T, src string, dialect minicuda.Dialect, spec *guardSpec, seed uint64) ([]float32, error) {
	t.Helper()
	p, err := minicuda.Compile(src, dialect)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	d := gpusim.NewDefaultDevice()
	defer d.Close()
	in := make([]float32, spec.n)
	for i := range in {
		in[i] = float32(i + 1) // distinct and nonzero, so stale reads show
	}
	ip, err := d.MallocFloat32(spec.n, in)
	if err != nil {
		t.Fatal(err)
	}
	op, err := d.Malloc(spec.n * 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Launch(d, spec.kernel,
		minicuda.LaunchOpts{Grid: gpusim.D1(spec.grid), Block: gpusim.D1(spec.block), SchedSeed: seed},
		minicuda.FloatPtr(ip), minicuda.FloatPtr(op), minicuda.Int(spec.n))
	if err != nil {
		return nil, err
	}
	out, err := d.ReadFloat32(op, spec.n)
	if err != nil {
		t.Fatal(err)
	}
	return out, nil
}

func TestDifferentialGuard(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cu"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		f := f
		name := strings.TrimSuffix(filepath.Base(f), ".cu")
		srcB, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := string(srcB)
		spec := parseGuard(src)

		// Error-severity race/OOB diagnostics demand a guard run or an
		// explicit exemption.
		golden, err := os.ReadFile(strings.TrimSuffix(f, ".cu") + ".diag")
		if err != nil {
			t.Fatalf("%s: missing golden: %v", name, err)
		}
		provable := strings.Contains(string(golden), "error[KC-RACE]") ||
			strings.Contains(string(golden), "error[KC-RACE-CALL]") ||
			strings.Contains(string(golden), "error[KC-OOB]")
		if provable && spec == nil {
			if _, ok := guardExempt[name]; !ok {
				t.Errorf("%s: provable diagnostic but no //GUARD: directive and no exemption", name)
			}
		}
		if spec == nil {
			continue
		}

		dialect := minicuda.DialectCUDA
		if strings.Contains(src, "__kernel") {
			dialect = minicuda.DialectOpenCL
		}
		t.Run(name, func(t *testing.T) {
			switch spec.expect {
			case "trap":
				for _, seed := range []uint64{0, 0x9e3779b9} {
					if _, err := runGuard(t, src, dialect, spec, seed); err == nil {
						t.Errorf("seed %#x: expected a trap, launch succeeded", seed)
					}
				}
			case "nondet":
				a, err := runGuard(t, src, dialect, spec, 0)
				if err != nil {
					t.Fatalf("seed 0: %v", err)
				}
				b, err := runGuard(t, src, dialect, spec, 0x9e3779b9)
				if err != nil {
					t.Fatalf("seed 0x9e3779b9: %v", err)
				}
				if fmt.Sprint(a) == fmt.Sprint(b) {
					t.Errorf("output identical across scheduler seeds; race not observable:\n%v", a)
				}
			}
		})
	}
}
