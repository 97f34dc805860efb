package minicuda

import (
	"fmt"
	"reflect"
	"testing"

	"webgpu/internal/gpusim"
)

// budgetKernels run forever over int and float ops with fused pairs in the
// loop: a multiply-add whose product is dead (wFMA), a compare-and-branch
// (wCmpJZ) and a counter increment before the back edge (wAddKJmp). A lane
// takes its identity from threadIdx.x + lane0, so the same lane can also be
// launched alone.
var budgetKernels = []struct{ name, src string }{
	{"uniform", `__global__ void k(int *iout, float *fout, int lane0, float x) {
  int t = threadIdx.x + lane0;
  int n = t * 5 + 1; float f = x;
  int c = 0;
  iout[t] = n;
  while (1) {
    n = n * 3 + t;
    f = f * x + f;
    if (c < 0) { n = 0; }
    c++;
  }
  fout[t] = f;
}`},
	// Every instruction of the loop is half of a fused pair, so a budget
	// runs out inside one and the pair replays a component at a time.
	{"fused-only", `__global__ void k(int *iout, float *fout, int lane0, float x) {
  int t = threadIdx.x + lane0;
  float f = x + t;
  int c = t;
  iout[t] = c;
  while (1) {
    f = f * x + f;
    c++;
  }
  fout[t] = f;
}`},
	// The odd half returns before the loop: the even half loops as a
	// partial strand, on the lane-list path. (A branch that splits the
	// looping lanes would leave the lanes of one side short of their budget
	// when the other side traps.)
	{"divergent-half", `__global__ void k(int *iout, float *fout, int lane0, float x) {
  int t = threadIdx.x + lane0;
  int n = t * 5 + 1; float f = x;
  int c = 0;
  iout[t] = n;
  if (t % 2 == 1) { return; }
  while (1) {
    n = n * 3 + t;
    f = f * x + f;
    if (c < 0) { n = c - n; }
    c++;
  }
  fout[t] = f;
}`},
}

// TestStepBudgetIsExactPerLane: the step budget is a property of each
// lane, whatever path its strand takes — the full-warp loops, the lane-list
// loops or the fused pairs' near-budget replay. Every row traps with
// ErrStepLimit. At one lane its LaunchStats equal LaunchTree's. At 32 and
// 40 lanes a launch ends at its first trap: the warps run in turn, so the
// lanes that ran are those of every warp up to the first one with a lane
// that traps, and each of them ran exactly as it does alone — to its return,
// or to its trap after exactly MaxSteps steps. The additive counters are
// then the sum, over those lanes, of LaunchTree's counters for the lane
// launched alone. (The oracle itself cannot be asked at 32 lanes: it runs a
// block's threads one at a time and stops at the first thread that traps.)
func TestStepBudgetIsExactPerLane(t *testing.T) {
	const x = 0.75
	for _, k := range budgetKernels {
		prog, err := Compile(k.src, DialectCUDA)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 32, 40} {
			for _, maxSteps := range []int64{1, 2, 7, 500} {
				c := diffCase{kernel: "k", src: k.src, block: gpusim.D1(width), nInt: width, nFloat: width,
					maxSteps: maxSteps, extra: []Arg{Int(0), Float(x)}}.withDefaults()
				t.Run(fmt.Sprintf("%s/w%d/steps%d", k.name, width, maxSteps), func(t *testing.T) {
					got := runOnEngine(t, prog, c, launchWarp)
					if got.errStr != ErrStepLimit.Error() {
						t.Fatalf("error %q, want %v", got.errStr, ErrStepLimit)
					}
					if width == 1 {
						requireSameRun(t, "warp", got, runOnEngine(t, prog, c, launchTree), c, false)
						return
					}
					var want gpusim.LaunchStats
					wantInts := make([]int32, width)
					ran, trapped := 0, false
					for l := 0; l < width && !(trapped && l%gpusim.DefaultProps().WarpSize == 0); l++ {
						alone := diffCase{kernel: "k", nInt: width, nFloat: width, maxSteps: maxSteps,
							extra: []Arg{Int(l), Float(x)}}.withDefaults()
						r := runOnEngine(t, prog, alone, launchTree)
						switch r.errStr {
						case "":
						case ErrStepLimit.Error():
							trapped = true
						default:
							t.Fatalf("lane %d alone: %s", l, r.errStr)
						}
						addCounters(&want, &r.stats)
						wantInts[l] = r.ints[l]
						ran++
					}
					if !trapped {
						t.Fatal("no lane traps alone")
					}
					var have gpusim.LaunchStats
					addCounters(&have, &got.stats)
					if have != want {
						t.Fatalf("counters of the %d lanes that ran:\nwarp:  %+v\nalone: %+v", ran, have, want)
					}
					if !reflect.DeepEqual(got.ints, wantInts) {
						t.Fatalf("iout %v, want %v", got.ints, wantInts)
					}
				})
			}
		}
	}
}

// addCounters adds s's per-lane counters (those a launch sums over its
// threads) to acc.
func addCounters(acc, s *gpusim.LaunchStats) {
	acc.ALUOps += s.ALUOps
	acc.SpecialOps += s.SpecialOps
	acc.Branches += s.Branches
	acc.Barriers += s.Barriers
	acc.Atomics += s.Atomics
	acc.GlobalLoads += s.GlobalLoads
	acc.GlobalStores += s.GlobalStores
	acc.SharedOps += s.SharedOps
	acc.ConstLoads += s.ConstLoads
}
