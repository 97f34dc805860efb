package gpusim

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

// Memory-access events are recorded lock-free into per-thread logs and
// aggregated once per block under the warp-synchronous approximation: the
// k-th global (resp. shared) access of each thread in a warp is treated
// as issuing together, so the block's transaction count is the number of
// distinct 128-byte segments (resp. the per-bank conflict degree) among
// each warp's k-th accesses.

// gEvent is one global-memory access by one thread.
type gEvent struct {
	alloc        uint64
	segLo, segHi int32
}

// sEvent is one shared-memory access by one thread.
type sEvent struct {
	word int32
}

type gSeg struct {
	alloc uint64
	seg   int32
}

// aggregateCost merges the per-thread event logs of one block into
// transaction counts. The tuple spaces are partitioned by (warp, seq), so
// distinct counts are accumulated warp by warp, access slot by access
// slot, with small reused slices instead of maps: a warp holds at most 32
// threads, so linear-scan dedup beats hashing and allocates nothing.
func aggregateCost(ctxs []*ThreadCtx, warpSize int) (globalTx, sharedTx int64) {
	// ctxs is ordered by flattened thread index and thread t is in warp
	// t/warpSize, so each warp is a contiguous run of ctxs — slice it
	// directly instead of regrouping into per-warp slices.

	// Global: count distinct (warp, seq, alloc, segment) tuples — i.e. for
	// each warp's k-th access slot, the distinct (alloc, segment) pairs.
	var segBuf [64]gSeg
	segs := segBuf[:0]
	// Shared: for each (warp, seq), the max number of distinct words mapped
	// to the same bank (the conflict degree; a broadcast of one word costs 1).
	var wordBuf [numBanks]int32
	words := wordBuf[:0]

	for base := 0; base < len(ctxs); base += warpSize {
		end := base + warpSize
		if end > len(ctxs) {
			end = len(ctxs)
		}
		wts := ctxs[base:end]
		maxG, maxS := 0, 0
		for _, tc := range wts {
			if len(tc.gEvents) > maxG {
				maxG = len(tc.gEvents)
			}
			if len(tc.sEvents) > maxS {
				maxS = len(tc.sEvents)
			}
		}
		for seq := 0; seq < maxG; seq++ {
			segs = segs[:0]
			for _, tc := range wts {
				if seq >= len(tc.gEvents) {
					continue
				}
				ev := tc.gEvents[seq]
				for s := ev.segLo; s <= ev.segHi; s++ {
					key := gSeg{alloc: ev.alloc, seg: s}
					seen := false
					for _, e := range segs {
						if e == key {
							seen = true
							break
						}
					}
					if !seen {
						segs = append(segs, key)
					}
				}
			}
			globalTx += int64(len(segs))
		}
		for seq := 0; seq < maxS; seq++ {
			words = words[:0]
			any := false
			for _, tc := range wts {
				if seq >= len(tc.sEvents) {
					continue
				}
				any = true
				w := tc.sEvents[seq].word
				seen := false
				for _, x := range words {
					if x == w {
						seen = true
						break
					}
				}
				if !seen {
					words = append(words, w)
				}
			}
			if !any {
				continue
			}
			var perBank [numBanks]int
			degree := 1
			for _, w := range words {
				bank := w % numBanks
				if bank < 0 {
					bank += numBanks
				}
				perBank[bank]++
				if perBank[bank] > degree {
					degree = perBank[bank]
				}
			}
			sharedTx += int64(degree)
		}
	}
	return globalTx, sharedTx
}

// blockCycles estimates the cycles one block occupies its SM, assuming the
// SM overlaps compute and memory pipelines (the slower one dominates) and
// pays barrier and atomic latencies serially.
func blockCycles(p DeviceProps, r blockResult) int64 {
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
