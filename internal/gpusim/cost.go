package gpusim

import (
	"cmp"
	"slices"
	"time"
)

// Cost-model constants, in device cycles. The absolute values are loosely
// based on Kepler-class latencies; what matters for the course labs is the
// ratio between coalesced/uncoalesced global traffic and shared-memory
// reuse, which is what makes tiled matrix multiply beat the basic version
// and coalesced access beat strided access by roughly the factors students
// observe on real hardware.
const (
	latGlobalTx          = 400 // one 128-byte global memory transaction
	latSharedTx          = 4   // one conflict-free shared-memory access
	latBarrier           = 32  // __syncthreads
	latAtomic            = 120 // global atomic
	latSpecial           = 16  // SFU op (sqrt, exp, ...)
	launchOverheadCycles = 4000
	segmentBytes         = 128 // coalescing segment
	numBanks             = 32  // shared-memory banks
	bankWidthBytes       = 4

	// copyBytesPerSecond is the host↔device bandwidth a cudaMemcpy is
	// priced at: a PCIe 3.0 x16 link's effective rate.
	copyBytesPerSecond = 6 << 30
)

// CostModel exposes the simulator's cost-model constants to tooling that
// wants its advice to match what the simulator charges — kernelcheck's
// performance advisories cite these numbers so a student sees the same
// ratios in the diagnostic and in the lab's timing output.
type CostModel struct {
	LatGlobalTx    int // cycles per 128-byte global transaction
	LatSharedTx    int // cycles per conflict-free shared access
	LatBarrier     int // cycles per __syncthreads
	SegmentBytes   int // global coalescing segment size
	NumBanks       int // shared-memory banks
	BankWidthBytes int // bytes per bank word
}

// CostParams returns the constants the cost model charges with.
func CostParams() CostModel {
	return CostModel{
		LatGlobalTx:    latGlobalTx,
		LatSharedTx:    latSharedTx,
		LatBarrier:     latBarrier,
		SegmentBytes:   segmentBytes,
		NumBanks:       numBanks,
		BankWidthBytes: bankWidthBytes,
	}
}

// CopyTime is the simulated time of a host↔device copy of n bytes: a
// function of the bytes moved, as a kernel's SimTime is of its counters.
func CopyTime(n int) time.Duration {
	return time.Duration(int64(n) * int64(time.Second) / copyBytesPerSecond)
}

// Memory is priced per warp-wide issue of one memory instruction, as the
// hardware does: a global instruction costs one transaction per distinct
// (allocation, 128-byte segment) pair its lanes touch, a shared one the
// largest number of distinct words its lanes address in any one bank (a
// broadcast of one word costs 1). LaunchWarp charges at the instruction,
// from the lane addresses it is handed (warp.go). Launch runs threads one
// at a time, so each thread logs its accesses and aggregateCost regroups a
// warp's logs at block end: accesses that carry the same key (ThreadCtx.SetSite)
// are one instruction. A kernel that sets no key is keyed by ordinal, its
// k-th access issuing with its warp siblings' k-th.

// gEvent is one global-memory access by one thread.
type gEvent struct {
	key          uint64
	alloc        uint64
	segLo, segHi int32
}

// sEvent is one shared-memory access by one thread.
type sEvent struct {
	key  uint64
	word int32
}

type gSeg struct {
	alloc uint64
	seg   int32
}

// addSegs adds the segments of the access [off, off+size) of alloc to the
// set segs.
func addSegs(segs []gSeg, alloc uint64, off, size int) []gSeg {
	for s := off / segmentBytes; s <= (off+size-1)/segmentBytes; s++ {
		segs = addSeg(segs, gSeg{alloc: alloc, seg: int32(s)})
	}
	return segs
}

// addSeg adds k to the set segs. Lanes of one instruction mostly share
// their neighbour's segment, so the scan runs newest first.
func addSeg(segs []gSeg, k gSeg) []gSeg {
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i] == k {
			return segs
		}
	}
	return append(segs, k)
}

// bankDegree is the SharedTx of one instruction whose lanes address the
// given words: the largest number of distinct words in one bank, 0 for no
// lanes. Most instructions are conflict-free — every bank holds one word,
// however many lanes read it — and cost 1.
func bankDegree(words []int) int64 {
	if len(words) == 0 {
		return 0
	}
	var held [numBanks]int32 // 1 + the word a bank holds; 0: none yet
	for _, w := range words {
		b := w % numBanks
		switch held[b] {
		case 0:
			held[b] = int32(w) + 1
		case int32(w) + 1:
		default:
			return bankConflicts(words)
		}
	}
	return 1
}

// bankConflicts is bankDegree for an instruction with a conflict. Only a
// word that is not the first its bank saw can be a repeat of another, so
// only those are compared.
func bankConflicts(words []int) int64 {
	var distinct [numBanks]int32
	var first [numBanks]int
	var moreBuf [64]int
	more := moreBuf[:0]
	degree := int32(1)
	for _, w := range words {
		b := w % numBanks
		switch {
		case distinct[b] == 0:
			distinct[b], first[b] = 1, w
		case first[b] == w || slices.Contains(more, w):
		default:
			more = append(more, w)
			distinct[b]++
			degree = max(degree, distinct[b])
		}
	}
	return int64(degree)
}

// aggregateCost charges the accesses one block's threads logged under
// Launch: per warp, the events that share a key are one instruction.
func aggregateCost(ctxs []*ThreadCtx, warpSize int) (globalTx, sharedTx int64) {
	var (
		g     []gEvent
		s     []sEvent
		segs  []gSeg
		words []int
	)
	for base := 0; base < len(ctxs); base += warpSize {
		g, s = g[:0], s[:0]
		for _, tc := range ctxs[base:min(base+warpSize, len(ctxs))] {
			g = append(g, tc.gEvents...)
			s = append(s, tc.sEvents...)
		}
		slices.SortFunc(g, func(a, b gEvent) int { return cmp.Compare(a.key, b.key) })
		slices.SortFunc(s, func(a, b sEvent) int { return cmp.Compare(a.key, b.key) })
		for i := 0; i < len(g); {
			segs = segs[:0]
			key := g[i].key
			for ; i < len(g) && g[i].key == key; i++ {
				for seg := g[i].segLo; seg <= g[i].segHi; seg++ {
					segs = addSeg(segs, gSeg{alloc: g[i].alloc, seg: seg})
				}
			}
			globalTx += int64(len(segs))
		}
		for i := 0; i < len(s); {
			words = words[:0]
			key := s[i].key
			for ; i < len(s) && s[i].key == key; i++ {
				words = append(words, int(s[i].word))
			}
			sharedTx += bankDegree(words)
		}
	}
	return globalTx, sharedTx
}

// blockCycles estimates the cycles one block occupies its SM, assuming the
// SM overlaps compute and memory pipelines (the slower one dominates) and
// pays barrier and atomic latencies serially.
func blockCycles(p DeviceProps, r *counters) int64 {
	cores := int64(p.CoresPerSM)
	if cores <= 0 {
		cores = 128
	}
	compute := (r.alu + r.special*latSpecial + r.branches) / cores
	memory := r.gTx*latGlobalTx/8 + r.sTx*latSharedTx + r.cLoads/4
	serial := r.barriers/int64(max(1, int(p.WarpSize)))*latBarrier + r.atomics*latAtomic/4
	busy := compute
	if memory > busy {
		busy = memory
	}
	return busy + serial + 200 // fixed block-dispatch overhead
}
