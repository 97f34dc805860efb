// Package mpi is an in-process message-passing substrate standing in for
// the MPI installation the paper's Multi-GPU Stencil lab requires on its
// worker nodes. Ranks run as goroutines within one process and exchange
// typed messages over channels; the API is the MPI subset the lab harness
// uses: point-to-point send and receive.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Errors a harness sees wrapped with the ranks involved.
var (
	errRankRange = errors.New("mpi: rank out of range")
	errTimeout   = errors.New("mpi: operation timed out (deadlock?)")
)

// defaultTimeout bounds blocking operations so a deadlocked student
// harness is reported instead of hanging a worker node.
const defaultTimeout = 10 * time.Second

type message struct {
	tag  int
	data []byte
}

// World is a communicator of Size ranks.
type World struct {
	size    int
	timeout time.Duration
	chans   [][]chan message // chans[from][to]
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: invalid world size %d", size)
	}
	w := &World{size: size, timeout: defaultTimeout}
	w.chans = make([][]chan message, size)
	for i := range w.chans {
		w.chans[i] = make([]chan message, size)
		for j := range w.chans[i] {
			w.chans[i][j] = make(chan message, 64)
		}
	}
	return w, nil
}

// Comm returns the communicator handle for one rank.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("%w: %d of %d", errRankRange, rank, w.size)
	}
	return &Comm{w: w, rank: rank}, nil
}

// Run launches fn for every rank and waits for all to finish, returning
// the first error. This is the mpirun equivalent the lab harness calls.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		c, err := w.Comm(r)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(r int, c *Comm) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, rec)
				}
			}()
			errs[r] = fn(c)
		}(r, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Comm is one rank's endpoint in a World.
type Comm struct {
	w    *World
	rank int
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// Send delivers data to rank `to` with a message tag. A timer is armed
// only when the channel is full, and stopped on return: go 1.22 keeps an
// unfired time.After timer alive for the full timeout, per call.
func (c *Comm) Send(to, tag int, data []byte) error {
	if to < 0 || to >= c.w.size {
		return fmt.Errorf("%w: send to %d", errRankRange, to)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m := message{tag: tag, data: cp}
	ch := c.w.chans[c.rank][to]
	select {
	case ch <- m:
		return nil
	default:
	}
	timeout := time.NewTimer(c.w.timeout)
	defer timeout.Stop()
	select {
	case ch <- m:
		return nil
	case <-timeout.C:
		return fmt.Errorf("%w: rank %d send to %d", errTimeout, c.rank, to)
	}
}

// Recv receives the next message from rank `from` with the given tag.
// Messages with other tags from the same sender are delivered in order to
// subsequent matching Recv calls (a small reorder buffer handles the
// mismatch, as real MPI does with its unexpected-message queue).
func (c *Comm) Recv(from, tag int) ([]byte, error) {
	if from < 0 || from >= c.w.size {
		return nil, fmt.Errorf("%w: recv from %d", errRankRange, from)
	}
	ch := c.w.chans[from][c.rank]
	timeout := time.NewTimer(c.w.timeout)
	defer timeout.Stop()
	var stash []message
	defer func() {
		// Requeue non-matching messages in order.
		for _, m := range stash {
			ch <- m
		}
	}()
	for {
		select {
		case m := <-ch:
			if m.tag == tag {
				return m.data, nil
			}
			stash = append(stash, m)
		case <-timeout.C:
			return nil, fmt.Errorf("%w: rank %d recv from %d tag %d", errTimeout, c.rank, from, tag)
		}
	}
}

// SendFloat32s sends a float32 slice.
func (c *Comm) SendFloat32s(to, tag int, xs []float32) error {
	b := make([]byte, 4*len(xs))
	for i, x := range xs {
		putU32(b[i*4:], math.Float32bits(x))
	}
	return c.Send(to, tag, b)
}

// RecvFloat32s receives a float32 slice.
func (c *Comm) RecvFloat32s(from, tag int) ([]float32, error) {
	b, err := c.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	xs := make([]float32, len(b)/4)
	for i := range xs {
		xs[i] = math.Float32frombits(getU32(b[i*4:]))
	}
	return xs, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
