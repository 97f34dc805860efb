package gpusim

import (
	"math"
	"sync"
)

// Atomic operations on global and shared memory. Global atomics take a
// striped lock on the device keyed by the target address so that atomics
// to distinct words proceed mostly in parallel, as on hardware. Shared
// atomics lock the block (shared memory is private to a block, and the
// interpreter issues them rarely enough that one lock suffices).

func (d *Device) atomicLock(p Ptr, idx int) *sync.Mutex {
	h := (p.alloc*2654435761 + uint64(int64(idx))) % uint64(len(d.atomicLocks))
	return &d.atomicLocks[h]
}

// AtomicAddFloat32 atomically adds val to the float32 at element idx of the
// global allocation behind p and returns the old value (CUDA atomicAdd).
func (tc *ThreadCtx) AtomicAddFloat32(p Ptr, idx int, val float32) (float32, error) {
	lk := tc.Dev.atomicLock(p, idx)
	lk.Lock()
	defer lk.Unlock()
	v, err := tc.Dev.view(p.Offset(idx*4), 4)
	if err != nil {
		return 0, err
	}
	tc.stats.atomics++
	old := math.Float32frombits(leU32(v))
	putLeU32(v, math.Float32bits(old+val))
	return old, nil
}

// AtomicAddInt32 atomically adds val to the int32 at element idx.
func (tc *ThreadCtx) AtomicAddInt32(p Ptr, idx int, val int32) (int32, error) {
	lk := tc.Dev.atomicLock(p, idx)
	lk.Lock()
	defer lk.Unlock()
	v, err := tc.Dev.view(p.Offset(idx*4), 4)
	if err != nil {
		return 0, err
	}
	tc.stats.atomics++
	old := int32(leU32(v))
	putLeU32(v, uint32(old+val))
	return old, nil
}

// AtomicMaxInt32 atomically stores max(old, val) and returns old.
func (tc *ThreadCtx) AtomicMaxInt32(p Ptr, idx int, val int32) (int32, error) {
	lk := tc.Dev.atomicLock(p, idx)
	lk.Lock()
	defer lk.Unlock()
	v, err := tc.Dev.view(p.Offset(idx*4), 4)
	if err != nil {
		return 0, err
	}
	tc.stats.atomics++
	old := int32(leU32(v))
	if val > old {
		putLeU32(v, uint32(val))
	}
	return old, nil
}

// AtomicMinInt32 atomically stores min(old, val) and returns old.
func (tc *ThreadCtx) AtomicMinInt32(p Ptr, idx int, val int32) (int32, error) {
	lk := tc.Dev.atomicLock(p, idx)
	lk.Lock()
	defer lk.Unlock()
	v, err := tc.Dev.view(p.Offset(idx*4), 4)
	if err != nil {
		return 0, err
	}
	tc.stats.atomics++
	old := int32(leU32(v))
	if val < old {
		putLeU32(v, uint32(val))
	}
	return old, nil
}

// AtomicCASInt32 performs compare-and-swap and returns the old value.
func (tc *ThreadCtx) AtomicCASInt32(p Ptr, idx int, compare, val int32) (int32, error) {
	lk := tc.Dev.atomicLock(p, idx)
	lk.Lock()
	defer lk.Unlock()
	v, err := tc.Dev.view(p.Offset(idx*4), 4)
	if err != nil {
		return 0, err
	}
	tc.stats.atomics++
	old := int32(leU32(v))
	if old == compare {
		putLeU32(v, uint32(val))
	}
	return old, nil
}

// AtomicExchInt32 atomically swaps in val and returns the old value.
func (tc *ThreadCtx) AtomicExchInt32(p Ptr, idx int, val int32) (int32, error) {
	lk := tc.Dev.atomicLock(p, idx)
	lk.Lock()
	defer lk.Unlock()
	v, err := tc.Dev.view(p.Offset(idx*4), 4)
	if err != nil {
		return 0, err
	}
	tc.stats.atomics++
	old := int32(leU32(v))
	putLeU32(v, uint32(val))
	return old, nil
}

// SharedAtomicAddInt32 atomically adds val to the int32 at element idx of
// the block's shared memory and returns the old value.
func (tc *ThreadCtx) SharedAtomicAddInt32(idx int, val int32) (int32, error) {
	bc := tc.block
	off := idx * 4
	if off < 0 || off+4 > len(bc.shared) {
		return 0, ErrIllegalAccess
	}
	tc.stats.atomics++
	old := int32(leU32(bc.shared[off:]))
	putLeU32(bc.shared[off:], uint32(old+val))
	return old, nil
}

// SharedAtomicAddFloat32 atomically adds val to the float32 at element idx
// of the block's shared memory and returns the old value.
func (tc *ThreadCtx) SharedAtomicAddFloat32(idx int, val float32) (float32, error) {
	bc := tc.block
	off := idx * 4
	if off < 0 || off+4 > len(bc.shared) {
		return 0, ErrIllegalAccess
	}
	tc.stats.atomics++
	old := math.Float32frombits(leU32(bc.shared[off:]))
	putLeU32(bc.shared[off:], math.Float32bits(old+val))
	return old, nil
}
