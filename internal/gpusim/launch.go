package gpusim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// KernelFunc executes one thread of a kernel. Implementations must perform
// all device-memory traffic through the ThreadCtx accessors so that the
// cost model observes it. Returning a non-nil error aborts the launch with
// that error, mimicking a device-side trap.
type KernelFunc func(tc *ThreadCtx) error

// LaunchConfig describes a kernel launch: the grid of blocks, the block of
// threads, and the dynamic shared-memory size in bytes.
type LaunchConfig struct {
	Grid           Dim3
	Block          Dim3
	SharedMemBytes int

	// NoBarriers declares that the kernel never calls SyncThreads, letting
	// Launch call each thread of a block inline, one after the other,
	// instead of giving every thread a coroutine it can park at a barrier
	// from — a large speedup for the map-style kernels most labs start
	// with. A SyncThreads call under this flag is reported as an error.
	// The minicuda launcher sets it automatically from the compiled
	// program. LaunchWarp ignores it: a warp kernel that never parks is
	// all a barrier-free launch is.
	NoBarriers bool

	// SchedSeed permutes the order in which a NoBarriers block calls its
	// threads under Launch (LaunchWarp has no such order). Zero keeps the
	// natural flattened-index order. Any thread ordering is a legal
	// schedule for independent threads, so a kernel whose output changes
	// with the seed has an order-dependent bug (a data race); the
	// kernelcheck differential guard seeds minicuda's oracle with it to
	// confirm statically-reported races at runtime. Results, traps, and
	// cost accounting are unaffected for race-free kernels.
	SchedSeed uint64
}

// MaxWarpSize is the widest warp a launch accepts: the warp engine keeps
// a warp's lanes in a 64-bit mask.
const MaxWarpSize = 64

// validateLaunch checks the configuration against the device limits.
func (d *Device) validateLaunch(cfg LaunchConfig) error {
	p := d.props
	b, g := cfg.Block, cfg.Grid
	switch {
	case p.WarpSize > MaxWarpSize:
		return fmt.Errorf("%w: warp size %d exceeds limit %d", ErrInvalidLaunch, p.WarpSize, MaxWarpSize)
	case b.X <= 0 || b.Y <= 0 || b.Z <= 0:
		return fmt.Errorf("%w: non-positive block dimension %v", ErrInvalidLaunch, b)
	case g.X <= 0 || g.Y <= 0 || g.Z <= 0:
		return fmt.Errorf("%w: non-positive grid dimension %v", ErrInvalidLaunch, g)
	case b.Count() > p.MaxThreadsPerBlock:
		return fmt.Errorf("%w: %d threads per block exceeds limit %d",
			ErrInvalidLaunch, b.Count(), p.MaxThreadsPerBlock)
	case b.X > p.MaxBlockDim.X || b.Y > p.MaxBlockDim.Y || b.Z > p.MaxBlockDim.Z:
		return fmt.Errorf("%w: block %v exceeds limit %v", ErrInvalidLaunch, b, p.MaxBlockDim)
	case g.X > p.MaxGridDim.X || g.Y > p.MaxGridDim.Y || g.Z > p.MaxGridDim.Z:
		return fmt.Errorf("%w: grid %v exceeds limit %v", ErrInvalidLaunch, g, p.MaxGridDim)
	case cfg.SharedMemBytes < 0 || cfg.SharedMemBytes > p.SharedMemPerBlock:
		return fmt.Errorf("%w: %d bytes of shared memory exceeds limit %d",
			ErrInvalidLaunch, cfg.SharedMemBytes, p.SharedMemPerBlock)
	}
	return nil
}

// blockCtx holds the per-block state shared by the threads of one block:
// the shared-memory arena, the barrier counters, and the launch's abort
// flag. A block runs on one goroutine (runTasks): its tasks take turns, so
// nothing here is locked; only aborted and abortErr are shared with the
// other blocks of the launch.
type blockCtx struct {
	dev      *Device
	blockIdx Dim3
	cfg      LaunchConfig
	shared   []byte
	cache    allocCache

	live       int // threads that have not yet retired
	parked     int // threads waiting at the current barrier
	generation int
	divergence bool

	tasks   []task
	cur     int // the running task
	pending int // tasks not yet done

	pass func(parked bool) // thread coroutines: end this thread's turn, start the next one's

	aborted  *atomic.Bool
	abortErr *onceErr
}

// onceErr records the first error reported by any thread of a launch.
type onceErr struct {
	mu  sync.Mutex
	err error
}

func (o *onceErr) set(err error) {
	if err == nil {
		return
	}
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

func (o *onceErr) get() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// block makes the scratch's block context the one of the block at
// blockIdx. The task list and the shared arena keep their capacity from
// the scratch's previous block; the arena is cleared, as a fresh one is.
func (scr *blockScratch) block(dev *Device, blockIdx Dim3, cfg LaunchConfig, aborted *atomic.Bool, abortErr *onceErr) *blockCtx {
	shared := scr.bc.shared
	if cap(shared) < cfg.SharedMemBytes {
		shared = make([]byte, cfg.SharedMemBytes)
	} else {
		shared = shared[:cfg.SharedMemBytes]
		clear(shared)
	}
	scr.bc = blockCtx{
		dev:      dev,
		blockIdx: blockIdx,
		cfg:      cfg,
		shared:   shared,
		tasks:    scr.bc.tasks,
		live:     cfg.Block.Count(),
		aborted:  aborted,
		abortErr: abortErr,
	}
	return &scr.bc
}

// The block barrier (__syncthreads) is three operations on the counters
// above, shared by the thread and warp paths. Divergence is a property of
// the program, decided here and nowhere else: a block diverges iff a
// thread retires while another is parked at a barrier, or a thread arrives
// after any thread of the block has retired — that is, iff its threads
// retire with unequal barrier counts. A diverged barrier still releases
// (the parked threads are all that is left), and every thread it releases,
// then or later, is handed ErrBarrierDivergence: the class of bug the
// course's tiled labs teach students to avoid.

// arrive registers n threads at the barrier. released reports that they
// completed it and run on; otherwise they are parked until poll(gen) says
// the barrier has released.
func (bc *blockCtx) arrive(n int) (gen int, released bool, err error) {
	if bc.aborted.Load() {
		return 0, false, bc.abortErr.get()
	}
	if bc.live < bc.cfg.Block.Count() {
		bc.divergence = true
	}
	gen = bc.generation
	bc.parked += n
	if bc.parked < bc.live {
		return gen, false, nil
	}
	bc.parked = 0
	bc.generation++
	_, err = bc.poll(gen)
	return gen, true, err
}

// poll reports whether barrier generation gen has released, with the error
// the released threads observe: the launch's abort first, then divergence.
func (bc *blockCtx) poll(gen int) (released bool, err error) {
	switch {
	case bc.aborted.Load():
		return true, bc.abortErr.get()
	case gen == bc.generation:
		return false, nil
	case bc.divergence:
		return true, ErrBarrierDivergence
	}
	return true, nil
}

// retire removes n finished threads (n > 0) from the barrier's participant
// set.
func (bc *blockCtx) retire(n int) {
	bc.live -= n
	if bc.parked > 0 {
		bc.divergence = true
		if bc.parked == bc.live {
			bc.parked = 0
			bc.generation++
		}
	}
}

// abort ends the launch with err; the first error reported wins.
func (bc *blockCtx) abort(err error) {
	bc.abortErr.set(err)
	bc.aborted.Store(true)
}

// recoverTrap, deferred around kernel code, turns a panic (a native
// kernel's out-of-range index, say) into the launch's illegal-access abort.
func (bc *blockCtx) recoverTrap() {
	if r := recover(); r != nil {
		bc.abort(fmt.Errorf("%w: %v", ErrIllegalAccess, r))
	}
}

// A block's tasks — warps under LaunchWarp, threads under Launch — take
// turns on the block's goroutine, in ascending order: a task runs until it
// is parked at the block barrier or done, then the next runnable one does.
// A parked task is runnable again once the barrier generation it parked at
// has released, or the launch has aborted and it must unwind. So a block's
// result is a function of the program alone; what this cannot do is
// satisfy a thread that spin-waits on a sibling of its block, which runs
// into the step limit instead.
type task struct {
	state uint8
	gen   int // barrier generation a parked task waits on
}

const (
	taskFresh uint8 = iota
	taskParked
	taskDone
)

// turn ends the running task's turn (there is none before the first call),
// parked at the barrier or else done, and returns the task that runs next:
// -1 when all are done. The scan finds a runnable task among the pending
// ones, because a barrier all of whose live threads are parked has
// released — unless a WarpKernelFunc broke its contract and parked without
// arriving all its lanes. Then a full ring goes by with every pending task
// parked at the unreleased generation, and the launch aborts with
// ErrBarrierStall (which makes the parked tasks runnable, to unwind).
func (bc *blockCtx) turn(parked bool) int {
	if bc.cur >= 0 {
		t := &bc.tasks[bc.cur]
		if parked {
			t.state, t.gen = taskParked, bc.generation
		} else {
			t.state = taskDone
			bc.pending--
		}
	}
	for scanned := 0; bc.pending > 0; scanned++ {
		if scanned == len(bc.tasks) {
			bc.abort(ErrBarrierStall)
		}
		bc.cur = (bc.cur + 1) % len(bc.tasks)
		t := &bc.tasks[bc.cur]
		aborted := bc.aborted.Load()
		switch {
		case t.state == taskDone:
		case t.state == taskFresh && aborted:
			// Never started: contributes empty stats.
			t.state = taskDone
			bc.pending--
		case t.state == taskParked && t.gen == bc.generation && !aborted:
		default:
			return bc.cur
		}
	}
	return -1
}

// startTasks gives the block n fresh tasks, none of them running.
func (bc *blockCtx) startTasks(n int) {
	if cap(bc.tasks) < n {
		bc.tasks = make([]task, n)
	} else {
		bc.tasks = bc.tasks[:n]
		clear(bc.tasks)
	}
	bc.cur, bc.pending = -1, n
}

// runTasks runs the block's n tasks to completion when a task's turn is a
// call that returns: step(i) runs task i until it is parked (true) or done.
func (bc *blockCtx) runTasks(n int, step func(i int) (parked bool)) {
	bc.startTasks(n)
	for i := bc.turn(false); i >= 0; i = bc.turn(step(i)) {
	}
}

// resolve returns the backing store of the allocation behind p through the
// block's allocation cache.
func (bc *blockCtx) resolve(p Ptr) ([]byte, error) {
	ac := &bc.cache
	for i, id := range ac.ids {
		if id == p.alloc && id != 0 {
			return ac.data[i], nil
		}
	}
	a, err := bc.dev.lookup(p)
	if err != nil {
		return nil, err
	}
	slot := ac.next
	ac.ids[slot], ac.data[slot] = p.alloc, a.data
	ac.next = (slot + 1) % allocCacheSize
	return a.data, nil
}

// AccessError is the trap of a Size-byte access at byte Offset outside a
// global allocation, or the block's shared arena, of Alloc bytes. It
// unwraps to ErrIllegalAccess.
type AccessError struct {
	Shared bool // the block's shared arena, not a global allocation
	Offset int
	Size   int
	Alloc  int
}

func (e *AccessError) Error() string {
	if e.Shared {
		return fmt.Sprintf("%v: shared memory access [%d,%d) of %d bytes",
			ErrIllegalAccess, e.Offset, e.Offset+e.Size, e.Alloc)
	}
	return fmt.Sprintf("%v: offset %d size %d in allocation of %d bytes",
		ErrIllegalAccess, e.Offset, e.Size, e.Alloc)
}

func (e *AccessError) Unwrap() error { return ErrIllegalAccess }

// Unit is the part of an execution context the cost model charges: one
// thread under Launch, one whole warp under LaunchWarp. LaunchStats reports
// block sums only, so a warp charges its lanes' work in bulk. Both contexts
// embed a Unit, which carries the compute counters, constant loads and
// atomics they share.
type Unit struct {
	dev   *Device
	block *blockCtx
	stats counters
}

// counters is the work one Unit, or one block, performed.
type counters struct {
	alu, special, branches, barriers, atomics int64
	gLoads, gStores, gTx                      int64
	sAccess, sTx, cLoads                      int64
}

func (c *counters) add(o *counters) {
	c.alu += o.alu
	c.special += o.special
	c.branches += o.branches
	c.barriers += o.barriers
	c.atomics += o.atomics
	c.gLoads += o.gLoads
	c.gStores += o.gStores
	c.gTx += o.gTx
	c.sAccess += o.sAccess
	c.sTx += o.sTx
	c.cLoads += o.cLoads
}

// CountALU charges n single-cycle arithmetic operations.
func (u *Unit) CountALU(n int) { u.stats.alu += int64(n) }

// CountSpecial charges n special-function-unit operations (sqrt, exp, ...).
func (u *Unit) CountSpecial(n int) { u.stats.special += int64(n) }

// CountBranch charges a branch instruction.
func (u *Unit) CountBranch() { u.stats.branches++ }

// CountBranches charges n branch instructions at once.
func (u *Unit) CountBranches(n int) { u.stats.branches += int64(n) }

// CountBarriers charges n barrier arrivals at once (a warp's lanes arrive
// together; a thread's SyncThreads charges its own).
func (u *Unit) CountBarriers(n int) { u.stats.barriers += int64(n) }

// ConstLoadFloat32 loads a float32 from constant memory at element idx.
func (u *Unit) ConstLoadFloat32(idx int) (float32, error) {
	w, err := u.ConstLoadInt32(idx)
	return math.Float32frombits(uint32(w)), err
}

// ConstLoadInt32 loads an int32 from constant memory at element idx.
func (u *Unit) ConstLoadInt32(idx int) (int32, error) {
	w, err := u.dev.constLoad(idx)
	if err != nil {
		return 0, err
	}
	u.stats.cLoads++
	return int32(w), nil
}

// ThreadCtx is the execution context of a single simulated GPU thread. It
// carries the CUDA builtin indices and provides the memory, barrier, and
// atomic operations a kernel may perform.
type ThreadCtx struct {
	Unit
	ThreadIdx Dim3
	BlockIdx  Dim3
	BlockDim  Dim3
	GridDim   Dim3

	gEvents []gEvent // global-access log, aggregated at block end
	sEvents []sEvent // shared-access log
	site    uint64   // the key of the accesses logged next, once keyed is set
	keyed   bool

	resume chan struct{} // wakes the thread's coroutine; nil when called inline
}

// allocCacheSize is the number of allocations an access cache holds; course
// kernels touch at most a handful of distinct buffers.
const allocCacheSize = 4

// allocCache is a small direct cache of allocation backing stores: kernels
// overwhelmingly hammer the same few buffers, so remembering them skips the
// device mutex and map lookup on the hot path. alloc ids are never reused
// within a device, so a hit cannot alias a freed buffer. A block owns one,
// shared by its threads: they run one at a time.
type allocCache struct {
	ids  [allocCacheSize]uint64
	data [allocCacheSize][]byte
	next int
}

// blockScratch is what one SM worker of a launch runs its blocks on,
// recycled across blocks and launches through scratchPool so that a warp
// tier block allocates nothing: the block context with its task list and
// shared arena, and the warp contexts. Every slot is reset before use and
// keeps only its capacity. The oracle (Launch) allocates its thread
// contexts per block: it is the simple path, not the fast one.
type blockScratch struct {
	bc    blockCtx
	warps []WarpCtx
}

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// threads lays out the thread contexts of block bc in flat order.
func threads(bc *blockCtx) []*ThreadCtx {
	cfg := bc.cfg
	backing := make([]ThreadCtx, cfg.Block.Count())
	ctxs := make([]*ThreadCtx, len(backing))
	for t := range backing {
		backing[t] = ThreadCtx{
			Unit:      Unit{dev: bc.dev, block: bc},
			ThreadIdx: unflatten(t, cfg.Block),
			BlockIdx:  bc.blockIdx,
			BlockDim:  cfg.Block,
			GridDim:   cfg.Grid,
		}
		ctxs[t] = &backing[t]
	}
	return ctxs
}

// FlatThreadIdx returns the linear index of the thread within its block.
func (tc *ThreadCtx) FlatThreadIdx() int {
	b := tc.BlockDim
	return tc.ThreadIdx.Z*b.Y*b.X + tc.ThreadIdx.Y*b.X + tc.ThreadIdx.X
}

// FlatBlockIdx returns the linear index of the block within the grid.
func (tc *ThreadCtx) FlatBlockIdx() int {
	g := tc.GridDim
	return tc.BlockIdx.Z*g.Y*g.X + tc.BlockIdx.Y*g.X + tc.BlockIdx.X
}

// GlobalThreadID returns the grid-wide linear thread id.
func (tc *ThreadCtx) GlobalThreadID() int {
	return tc.FlatBlockIdx()*tc.BlockDim.Count() + tc.FlatThreadIdx()
}

// SyncThreads implements __syncthreads: all live threads of the block must
// arrive before any proceeds. A thread that does not complete the barrier
// passes the turn on and waits to be resumed.
func (tc *ThreadCtx) SyncThreads() error {
	tc.stats.barriers++
	if tc.resume == nil {
		return fmt.Errorf("%w: SyncThreads called in a launch declared NoBarriers",
			ErrInvalidLaunch)
	}
	bc := tc.block
	gen, released, err := bc.arrive(1)
	if released || err != nil {
		return err
	}
	bc.pass(true)
	<-tc.resume
	_, err = bc.poll(gen)
	return err
}

// Shared returns the block's shared-memory arena (static + dynamic).
func (tc *ThreadCtx) Shared() []byte { return tc.block.shared }

// SetSite keys the thread's memory accesses from here on: the cost model
// prices the accesses of one warp's threads that carry the same key as one
// instruction (cost.go). A kernel that never calls it is keyed by ordinal.
func (tc *ThreadCtx) SetSite(key uint64) { tc.site, tc.keyed = key, true }

// key is the key of the thread's access with the given ordinal.
func (tc *ThreadCtx) key(ordinal int) uint64 {
	if tc.keyed {
		return tc.site
	}
	return uint64(ordinal)
}

// --- Global memory access ------------------------------------------------

func (tc *ThreadCtx) globalAccess(p Ptr, size int, store bool) ([]byte, error) {
	data, err := tc.block.resolve(p)
	if err != nil {
		return nil, err
	}
	if p.Off < 0 || size < 0 || p.Off+size > len(data) {
		return nil, &AccessError{Offset: p.Off, Size: size, Alloc: len(data)}
	}
	v := data[p.Off : p.Off+size]
	if store {
		tc.stats.gStores++
	} else {
		tc.stats.gLoads++
	}
	tc.gEvents = append(tc.gEvents, gEvent{
		key:   tc.key(len(tc.gEvents)),
		alloc: p.alloc,
		segLo: int32(p.Off / segmentBytes),
		segHi: int32((p.Off + size - 1) / segmentBytes),
	})
	return v, nil
}

// LoadFloat32 loads a float32 at element index idx (in elements, not bytes).
func (tc *ThreadCtx) LoadFloat32(p Ptr, idx int) (float32, error) {
	v, err := tc.globalAccess(p.Offset(idx*4), 4, false)
	if err != nil {
		return 0, err
	}
	return math.Float32frombits(leU32(v)), nil
}

// StoreFloat32 stores a float32 at element index idx.
func (tc *ThreadCtx) StoreFloat32(p Ptr, idx int, val float32) error {
	v, err := tc.globalAccess(p.Offset(idx*4), 4, true)
	if err != nil {
		return err
	}
	putLeU32(v, math.Float32bits(val))
	return nil
}

// LoadInt32 loads an int32 at element index idx.
func (tc *ThreadCtx) LoadInt32(p Ptr, idx int) (int32, error) {
	v, err := tc.globalAccess(p.Offset(idx*4), 4, false)
	if err != nil {
		return 0, err
	}
	return int32(leU32(v)), nil
}

// StoreInt32 stores an int32 at element index idx.
func (tc *ThreadCtx) StoreInt32(p Ptr, idx int, val int32) error {
	v, err := tc.globalAccess(p.Offset(idx*4), 4, true)
	if err != nil {
		return err
	}
	putLeU32(v, uint32(val))
	return nil
}

// LoadByte loads a byte at byte index idx.
func (tc *ThreadCtx) LoadByte(p Ptr, idx int) (byte, error) {
	v, err := tc.globalAccess(p.Offset(idx), 1, false)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// StoreByte stores a byte at byte index idx.
func (tc *ThreadCtx) StoreByte(p Ptr, idx int, val byte) error {
	v, err := tc.globalAccess(p.Offset(idx), 1, true)
	if err != nil {
		return err
	}
	v[0] = val
	return nil
}

// --- Shared memory access ------------------------------------------------

func (tc *ThreadCtx) sharedCheck(off, size int) error {
	if off < 0 || off+size > len(tc.block.shared) {
		return &AccessError{Shared: true, Offset: off, Size: size, Alloc: len(tc.block.shared)}
	}
	tc.stats.sAccess++
	tc.sEvents = append(tc.sEvents, sEvent{key: tc.key(len(tc.sEvents)), word: int32(off / bankWidthBytes)})
	return nil
}

// SharedLoadFloat32 loads a float32 from shared memory at element index idx.
func (tc *ThreadCtx) SharedLoadFloat32(idx int) (float32, error) {
	if err := tc.sharedCheck(idx*4, 4); err != nil {
		return 0, err
	}
	return math.Float32frombits(leU32(tc.block.shared[idx*4:])), nil
}

// SharedStoreFloat32 stores a float32 into shared memory at element idx.
func (tc *ThreadCtx) SharedStoreFloat32(idx int, val float32) error {
	if err := tc.sharedCheck(idx*4, 4); err != nil {
		return err
	}
	putLeU32(tc.block.shared[idx*4:], math.Float32bits(val))
	return nil
}

// SharedLoadInt32 loads an int32 from shared memory at element index idx.
func (tc *ThreadCtx) SharedLoadInt32(idx int) (int32, error) {
	if err := tc.sharedCheck(idx*4, 4); err != nil {
		return 0, err
	}
	return int32(leU32(tc.block.shared[idx*4:])), nil
}

// SharedStoreInt32 stores an int32 into shared memory at element idx.
func (tc *ThreadCtx) SharedStoreInt32(idx int, val int32) error {
	if err := tc.sharedCheck(idx*4, 4); err != nil {
		return err
	}
	putLeU32(tc.block.shared[idx*4:], uint32(val))
	return nil
}

// --- Launch engine ---------------------------------------------------------

// LaunchStats reports what a kernel launch did and the simulated time it
// took under the cost model.
type LaunchStats struct {
	Name         string
	Grid         Dim3
	Block        Dim3
	Blocks       int
	Threads      int
	ALUOps       int64
	SpecialOps   int64
	Branches     int64
	Barriers     int64
	Atomics      int64
	GlobalLoads  int64
	GlobalStores int64
	GlobalTx     int64 // distinct 128B memory transactions after coalescing
	SharedOps    int64
	SharedTx     int64 // bank-serialized shared accesses
	ConstLoads   int64
	SimCycles    int64
	SimTime      time.Duration
	WallTime     time.Duration
	Divergence   bool
}

// Launch executes kernel k over the configured grid and blocks synchronously
// (like a launch followed by cudaDeviceSynchronize) and returns statistics.
// Blocks are scheduled over the device's SMs and run concurrently; within
// a block the threads run one at a time, in ascending order, each until it
// finishes or parks at SyncThreads.
func (d *Device) Launch(name string, cfg LaunchConfig, k KernelFunc) (*LaunchStats, error) {
	warpSize := d.warpSize()
	return d.launchRun(name, cfg, func(bc *blockCtx, scr *blockScratch) counters {
		ctxs := threads(bc)
		runThread := func(tc *ThreadCtx) {
			defer bc.retire(1)
			defer bc.recoverTrap()
			if err := k(tc); err != nil {
				bc.abort(err)
			}
		}
		if cfg.NoBarriers {
			var order []int
			if cfg.SchedSeed != 0 {
				order = schedOrder(len(ctxs), cfg.SchedSeed, uint64(bc.blockIdx.X)|uint64(bc.blockIdx.Y)<<21|uint64(bc.blockIdx.Z)<<42)
			}
			bc.runTasks(len(ctxs), func(i int) bool {
				if order != nil {
					i = order[i]
				}
				runThread(ctxs[i])
				return false
			})
		} else {
			// A thread that may park needs a stack of its own, so each runs
			// as a coroutine, started on its first turn. Exactly one holds the
			// baton and runs at any time; it passes the baton straight to the
			// next thread when it parks or finishes, and the last one out
			// hands it back to this goroutine.
			done := make(chan struct{})
			bc.startTasks(len(ctxs))
			bc.pass = func(parked bool) {
				i := bc.turn(parked)
				if i < 0 {
					close(done)
					return
				}
				tc := ctxs[i]
				if tc.resume != nil {
					tc.resume <- struct{}{}
					return
				}
				// Buffered, so that a thread the abort leaves as the only one
				// pending can pass the baton to itself.
				tc.resume = make(chan struct{}, 1)
				go func() {
					runThread(tc)
					bc.pass(false)
				}()
			}
			bc.pass(false)
			<-done
		}
		var c counters
		for _, tc := range ctxs {
			c.add(&tc.stats)
		}
		c.gTx, c.sTx = aggregateCost(ctxs, warpSize)
		return c
	})
}

// launchRun is the launch scheduler shared by the per-thread and per-warp
// entry points: it validates the configuration, drains the grid's blocks
// over the simulated SMs, and folds block results into launch statistics.
// run executes one block and returns the work its units counted.
func (d *Device) launchRun(name string, cfg LaunchConfig, run func(bc *blockCtx, scr *blockScratch) counters) (*LaunchStats, error) {
	if err := d.validateLaunch(cfg); err != nil {
		return nil, err
	}
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, ErrDeviceClosed
	}

	start := time.Now()
	numBlocks := cfg.Grid.Count()
	threadsPerBlock := cfg.Block.Count()

	stats := &LaunchStats{
		Name:    name,
		Grid:    cfg.Grid,
		Block:   cfg.Block,
		Blocks:  numBlocks,
		Threads: numBlocks * threadsPerBlock,
	}

	// SM scheduler: each simulated SM is a goroutine taking the next block
	// off a shared counter.
	sms := d.props.MultiprocessorCount
	if sms <= 0 {
		sms = 1
	}
	// Don't oversubscribe the host, and start no worker that would find
	// the grid already drained: the simulated-time accounting is independent
	// of how many blocks run concurrently on the host.
	workers := min(sms, 2*runtime.GOMAXPROCS(0), numBlocks)

	var aborted atomic.Bool
	abortErr := &onceErr{}
	var nextBlock atomic.Int64
	smCycles := make([]int64, sms)
	var total counters
	var statsMu sync.Mutex
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		scr := scratchPool.Get().(*blockScratch)
		defer scratchPool.Put(scr)
		for !aborted.Load() {
			flat := int(nextBlock.Add(1)) - 1
			if flat >= numBlocks {
				return
			}
			bc := scr.block(d, unflatten(flat, cfg.Grid), cfg, &aborted, abortErr)
			c := run(bc, scr)
			cycles := blockCycles(d.props, &c)
			statsMu.Lock()
			// Round-robin blocks over the *simulated* SM count so the
			// simulated time reflects the device, not the host.
			smCycles[flat%sms] += cycles
			total.add(&c)
			stats.Divergence = stats.Divergence || bc.divergence
			statsMu.Unlock()
		}
	}
	wg.Add(workers)
	for range workers {
		go work()
	}
	wg.Wait()

	stats.ALUOps = total.alu
	stats.SpecialOps = total.special
	stats.Branches = total.branches
	stats.Barriers = total.barriers
	stats.Atomics = total.atomics
	stats.GlobalLoads = total.gLoads
	stats.GlobalStores = total.gStores
	stats.GlobalTx = total.gTx
	stats.SharedOps = total.sAccess
	stats.SharedTx = total.sTx
	stats.ConstLoads = total.cLoads
	stats.SimCycles = slices.Max(smCycles) + launchOverheadCycles
	khz := d.props.ClockRateKHz
	if khz <= 0 {
		khz = 1000000
	}
	stats.SimTime = time.Duration(float64(stats.SimCycles) / float64(khz) * 1e6 * float64(time.Nanosecond))
	stats.WallTime = time.Since(start)
	d.recordLaunch(stats)

	if err := abortErr.get(); err != nil {
		return stats, err
	}
	if stats.Divergence {
		return stats, ErrBarrierDivergence
	}
	return stats, nil
}

func (d *Device) warpSize() int {
	if w := d.props.WarpSize; w > 0 {
		return w
	}
	return 32
}

// schedOrder derives a deterministic permutation of [0,n) from the launch
// seed and the block coordinate, via splitmix64-keyed Fisher-Yates. Each
// block gets a different shuffle so inter-block patterns cannot mask an
// intra-block race.
func schedOrder(n int, seed, blockKey uint64) []int {
	s := seed ^ 0x9e3779b97f4a7c15*(blockKey+1)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// unflatten converts a linear index into a Dim3 coordinate within extent e,
// x fastest-varying as in CUDA.
func unflatten(flat int, e Dim3) Dim3 {
	x := flat % e.X
	y := (flat / e.X) % e.Y
	z := flat / (e.X * e.Y)
	return Dim3{X: x, Y: y, Z: z}
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
