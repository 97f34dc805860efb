package gpusim

import (
	"math"
	"sync"
)

// Atomic operations on global and shared memory. Global atomics take a
// striped lock on the device keyed by the target address so that atomics
// to distinct words proceed mostly in parallel, as on hardware. Shared
// memory is private to a block, whose threads and warps take turns, so
// shared atomics need no lock.

func (d *Device) atomicLock(p Ptr, idx int) *sync.Mutex {
	h := (p.alloc*2654435761 + uint64(int64(idx))) % uint64(len(d.atomicLocks))
	return &d.atomicLocks[h]
}

// atomicGlobal replaces the word at element idx of the global allocation
// behind p with update(old) and returns old.
func (u *Unit) atomicGlobal(p Ptr, idx int, update func(old uint32) uint32) (uint32, error) {
	lk := u.dev.atomicLock(p, idx)
	lk.Lock()
	defer lk.Unlock()
	v, err := u.dev.view(p.Offset(idx*4), 4)
	if err != nil {
		return 0, err
	}
	u.stats.atomics++
	old := leU32(v)
	putLeU32(v, update(old))
	return old, nil
}

// atomicShared is atomicGlobal on element idx of the block's shared memory.
func (u *Unit) atomicShared(idx int, update func(old uint32) uint32) (uint32, error) {
	sh := u.block.shared
	off := idx * 4
	if off < 0 || off+4 > len(sh) {
		return 0, ErrIllegalAccess
	}
	u.stats.atomics++
	old := leU32(sh[off:])
	putLeU32(sh[off:], update(old))
	return old, nil
}

func addF32(val float32) func(uint32) uint32 {
	return func(old uint32) uint32 { return math.Float32bits(math.Float32frombits(old) + val) }
}

func addI32(val int32) func(uint32) uint32 {
	return func(old uint32) uint32 { return uint32(int32(old) + val) }
}

// AtomicAddFloat32 atomically adds val to the float32 at element idx of the
// global allocation behind p and returns the old value (CUDA atomicAdd).
func (u *Unit) AtomicAddFloat32(p Ptr, idx int, val float32) (float32, error) {
	old, err := u.atomicGlobal(p, idx, addF32(val))
	return math.Float32frombits(old), err
}

// AtomicAddInt32 atomically adds val to the int32 at element idx.
func (u *Unit) AtomicAddInt32(p Ptr, idx int, val int32) (int32, error) {
	old, err := u.atomicGlobal(p, idx, addI32(val))
	return int32(old), err
}

// AtomicMaxInt32 atomically stores max(old, val) and returns old.
func (u *Unit) AtomicMaxInt32(p Ptr, idx int, val int32) (int32, error) {
	old, err := u.atomicGlobal(p, idx, func(old uint32) uint32 { return uint32(max(int32(old), val)) })
	return int32(old), err
}

// AtomicMinInt32 atomically stores min(old, val) and returns old.
func (u *Unit) AtomicMinInt32(p Ptr, idx int, val int32) (int32, error) {
	old, err := u.atomicGlobal(p, idx, func(old uint32) uint32 { return uint32(min(int32(old), val)) })
	return int32(old), err
}

// AtomicCASInt32 performs compare-and-swap and returns the old value.
func (u *Unit) AtomicCASInt32(p Ptr, idx int, compare, val int32) (int32, error) {
	old, err := u.atomicGlobal(p, idx, func(old uint32) uint32 {
		if int32(old) == compare {
			return uint32(val)
		}
		return old
	})
	return int32(old), err
}

// AtomicExchInt32 atomically swaps in val and returns the old value.
func (u *Unit) AtomicExchInt32(p Ptr, idx int, val int32) (int32, error) {
	old, err := u.atomicGlobal(p, idx, func(uint32) uint32 { return uint32(val) })
	return int32(old), err
}

// SharedAtomicAddInt32 atomically adds val to the int32 at element idx of
// the block's shared memory and returns the old value.
func (u *Unit) SharedAtomicAddInt32(idx int, val int32) (int32, error) {
	old, err := u.atomicShared(idx, addI32(val))
	return int32(old), err
}

// SharedAtomicAddFloat32 atomically adds val to the float32 at element idx
// of the block's shared memory and returns the old value.
func (u *Unit) SharedAtomicAddFloat32(idx int, val float32) (float32, error) {
	old, err := u.atomicShared(idx, addF32(val))
	return math.Float32frombits(old), err
}
