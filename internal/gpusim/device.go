// Package gpusim implements a deterministic simulator for a CUDA-class
// bulk-synchronous GPU. It stands in for the physical NVIDIA devices the
// WebGPU paper's worker nodes expose: it provides device properties, the
// global/shared/constant memory spaces, kernel launches over a grid of
// thread blocks scheduled across simulated streaming multiprocessors,
// __syncthreads-style barriers with divergence detection, atomics, and a
// cycle-level cost model that captures memory coalescing and shared-memory
// bank conflicts so that the relative performance of the course labs
// (e.g. tiled vs. basic matrix multiply) has the right shape.
//
// The simulator is exact with respect to results (bit-wise deterministic
// float32 arithmetic per thread) and approximate with respect to timing
// (see cost.go for the model).
package gpusim

import (
	"errors"
	"fmt"
	"sync"
)

// Dim3 is a three-dimensional extent or index, as in CUDA's dim3.
type Dim3 struct {
	X, Y, Z int
}

// Count returns the total number of elements covered by the extent.
func (d Dim3) Count() int { return d.X * d.Y * d.Z }

// String renders the dimension in CUDA's (x, y, z) order.
func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// D1 is shorthand for a one-dimensional Dim3.
func D1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// D2 is shorthand for a two-dimensional Dim3.
func D2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// DeviceProps describes a simulated GPU, mirroring cudaDeviceProp. The
// Device Query lab reports these fields.
type DeviceProps struct {
	Name                string
	ComputeCapability   [2]int // major, minor
	MultiprocessorCount int
	CoresPerSM          int
	WarpSize            int
	MaxThreadsPerBlock  int
	MaxBlockDim         Dim3
	MaxGridDim          Dim3
	TotalGlobalMem      int // bytes
	SharedMemPerBlock   int // bytes
	TotalConstMem       int // bytes
	RegistersPerBlock   int
	ClockRateKHz        int
	MemoryClockRateKHz  int
	MemoryBusWidthBits  int
	L2CacheSize         int
	ConcurrentKernels   bool
	UnifiedAddressing   bool
	AsyncEngineCount    int
	PCIBusID            int
	PCIDeviceID         int
}

// DefaultProps returns properties modeled on the Kepler/Maxwell-era cards
// that backed WebGPU's AWS g2 worker nodes during the 2013-2015 course
// offerings.
func DefaultProps() DeviceProps {
	return DeviceProps{
		Name:                "SimGPU GRID K520",
		ComputeCapability:   [2]int{3, 0},
		MultiprocessorCount: 8,
		CoresPerSM:          192,
		WarpSize:            32,
		MaxThreadsPerBlock:  1024,
		MaxBlockDim:         Dim3{1024, 1024, 64},
		MaxGridDim:          Dim3{2147483647, 65535, 65535},
		TotalGlobalMem:      4 << 30,
		SharedMemPerBlock:   48 << 10,
		TotalConstMem:       64 << 10,
		RegistersPerBlock:   65536,
		ClockRateKHz:        797000,
		MemoryClockRateKHz:  2500000,
		MemoryBusWidthBits:  256,
		L2CacheSize:         512 << 10,
		ConcurrentKernels:   true,
		UnifiedAddressing:   true,
		AsyncEngineCount:    2,
		PCIBusID:            0,
		PCIDeviceID:         3,
	}
}

// Common simulator errors.
var (
	ErrOutOfMemory       = errors.New("gpusim: out of memory")
	ErrInvalidPtr        = errors.New("gpusim: invalid device pointer")
	ErrIllegalAccess     = errors.New("gpusim: an illegal memory access was encountered")
	ErrInvalidLaunch     = errors.New("gpusim: invalid launch configuration")
	ErrBarrierDivergence = errors.New("gpusim: barrier divergence: __syncthreads not reached by all threads")
	ErrBarrierStall      = errors.New("gpusim: barrier stall: a warp parked without arriving all its lanes")
)

// Ptr is a device global-memory pointer: an allocation handle plus a byte
// offset. Arithmetic within an allocation is allowed; crossing allocation
// boundaries is an illegal access, which is how the simulator detects the
// out-of-bounds bugs students write.
type Ptr struct {
	alloc uint64
	Off   int
}

// IsNil reports whether the pointer is the device null pointer.
func (p Ptr) IsNil() bool { return p.alloc == 0 }

// Offset returns a pointer advanced by n bytes within the same allocation.
func (p Ptr) Offset(n int) Ptr { return Ptr{alloc: p.alloc, Off: p.Off + n} }

type allocation struct {
	id   uint64
	data []byte
}

// Device is a simulated GPU. All methods are safe for concurrent use; a
// Device may be shared by the container pool of a worker node.
type Device struct {
	props DeviceProps
	index int

	mu        sync.Mutex
	nextAlloc uint64
	allocs    map[uint64]*allocation
	usedBytes int
	// constMem is allocated by the first CopyToConst; until
	// then constant memory reads as zeros. Most jobs never touch it, and
	// a worker builds a fresh device set for every job.
	constMem []byte

	atomicLocks [64]sync.Mutex // striped locks for global-memory atomics

	statsMu  sync.Mutex
	launches []*LaunchStats // append-only, so LaunchCount marks a position in it
}

// NewDevice creates a device with the given properties.
func NewDevice(props DeviceProps) *Device {
	return &Device{
		props:     props,
		nextAlloc: 1,
		allocs:    make(map[uint64]*allocation),
	}
}

// NewDefaultDevice creates a device with DefaultProps.
func NewDefaultDevice() *Device { return NewDevice(DefaultProps()) }

// SetIndex assigns the device ordinal, as in a multi-GPU worker node.
func (d *Device) SetIndex(i int) { d.index = i }

// Malloc allocates size bytes of zeroed global memory.
func (d *Device) Malloc(size int) (Ptr, error) {
	if size < 0 {
		return Ptr{}, fmt.Errorf("%w: negative size %d", ErrInvalidPtr, size)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.usedBytes+size > d.props.TotalGlobalMem {
		return Ptr{}, fmt.Errorf("%w: requested %d bytes, %d in use of %d",
			ErrOutOfMemory, size, d.usedBytes, d.props.TotalGlobalMem)
	}
	id := d.nextAlloc
	d.nextAlloc++
	d.allocs[id] = &allocation{id: id, data: make([]byte, size)}
	d.usedBytes += size
	return Ptr{alloc: id}, nil
}

// AllocCount reports the number of live allocations; the worker node uses
// it to detect leaks between jobs.
func (d *Device) AllocCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.allocs)
}

func (d *Device) lookup(p Ptr) (*allocation, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.allocs[p.alloc]
	if !ok {
		return nil, ErrInvalidPtr
	}
	return a, nil
}

// view returns the byte slice [p.Off, p.Off+n) of the allocation behind p.
func (d *Device) view(p Ptr, n int) ([]byte, error) {
	a, err := d.lookup(p)
	if err != nil {
		return nil, err
	}
	if p.Off < 0 || n < 0 || p.Off+n > len(a.data) {
		return nil, &AccessError{Offset: p.Off, Size: n, Alloc: len(a.data)}
	}
	return a.data[p.Off : p.Off+n], nil
}

// MemcpyHtoD copies host bytes to device memory.
func (d *Device) MemcpyHtoD(dst Ptr, src []byte) error {
	v, err := d.view(dst, len(src))
	if err != nil {
		return err
	}
	copy(v, src)
	return nil
}

// MemcpyDtoH copies device memory to host bytes.
func (d *Device) MemcpyDtoH(dst []byte, src Ptr) error {
	v, err := d.view(src, len(dst))
	if err != nil {
		return err
	}
	copy(dst, v)
	return nil
}

// Memset fills n bytes of device memory with b.
func (d *Device) Memset(p Ptr, b byte, n int) error {
	v, err := d.view(p, n)
	if err != nil {
		return err
	}
	for i := range v {
		v[i] = b
	}
	return nil
}

// CopyToConst copies host bytes into constant memory at byte offset off.
func (d *Device) CopyToConst(off int, src []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off+len(src) > d.props.TotalConstMem {
		return fmt.Errorf("%w: constant memory write [%d,%d) of %d",
			ErrIllegalAccess, off, off+len(src), d.props.TotalConstMem)
	}
	if d.constMem == nil {
		d.constMem = make([]byte, d.props.TotalConstMem)
	}
	copy(d.constMem[off:], src)
	return nil
}

// constLoad reads the 32-bit word at element idx of constant memory;
// a device whose constant memory was never written reads zeros.
func (d *Device) constLoad(idx int) (uint32, error) {
	if idx < 0 || idx*4+4 > d.props.TotalConstMem {
		return 0, fmt.Errorf("%w: constant memory read at element %d", ErrIllegalAccess, idx)
	}
	if d.constMem == nil {
		return 0, nil
	}
	return leU32(d.constMem[idx*4:]), nil
}

// Reset frees all allocations and clears constant memory, as in
// cudaDeviceReset. Launch statistics are preserved.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocs = make(map[uint64]*allocation)
	d.usedBytes = 0
	d.constMem = nil
}

func (d *Device) recordLaunch(s *LaunchStats) {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	d.launches = append(d.launches, s)
}

// Launches returns a copy of the statistics of all kernel launches so far,
// oldest first.
func (d *Device) Launches() []*LaunchStats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	out := make([]*LaunchStats, len(d.launches))
	copy(out, d.launches)
	return out
}

// LaunchCount reports how many kernels have executed on the device.
func (d *Device) LaunchCount() int {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return len(d.launches)
}

// QueryString renders the device properties in the format the Device Query
// lab expects students to produce.
func (d *Device) QueryString() string {
	p := d.props
	return fmt.Sprintf(
		"Device %d name: %s\n"+
			" Computational Capabilities: %d.%d\n"+
			" Maximum global memory size: %d\n"+
			" Maximum constant memory size: %d\n"+
			" Maximum shared memory size per block: %d\n"+
			" Maximum block dimensions: %d x %d x %d\n"+
			" Maximum grid dimensions: %d x %d x %d\n"+
			" Warp size: %d\n",
		d.index, p.Name, p.ComputeCapability[0], p.ComputeCapability[1],
		p.TotalGlobalMem, p.TotalConstMem, p.SharedMemPerBlock,
		p.MaxBlockDim.X, p.MaxBlockDim.Y, p.MaxBlockDim.Z,
		p.MaxGridDim.X, p.MaxGridDim.Y, p.MaxGridDim.Z, p.WarpSize)
}
