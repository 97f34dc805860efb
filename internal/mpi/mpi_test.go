package mpi

import (
	"errors"
	"testing"
	"time"
)

func TestSendRecv(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("halo"))
		}
		b, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(b) != "halo" {
			t.Errorf("recv = %q", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagReordering(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("first")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("second"))
		}
		// Receive in the opposite tag order.
		b2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		b1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(b1) != "first" || string(b2) != "second" {
			t.Errorf("got %q, %q", b1, b2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	w, _ := NewWorld(2)
	xs := []float32{1.5, -2.25, 3e7}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.SendFloat32s(1, 0, xs)
		}
		got, err := c.RecvFloat32s(0, 0)
		if err != nil {
			return err
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Errorf("elem %d = %v", i, got[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeout(t *testing.T) {
	w, _ := NewWorld(2)
	w.timeout = 50 * time.Millisecond
	c, _ := w.Comm(1)
	if _, err := c.Recv(0, 0); !errors.Is(err, errTimeout) {
		t.Errorf("err = %v, want errTimeout", err)
	}
}

func TestRankRange(t *testing.T) {
	w, _ := NewWorld(2)
	c, _ := w.Comm(0)
	if err := c.Send(5, 0, nil); !errors.Is(err, errRankRange) {
		t.Errorf("send err = %v", err)
	}
	if _, err := c.Recv(-1, 0); !errors.Is(err, errRankRange) {
		t.Errorf("recv err = %v", err)
	}
	if _, err := w.Comm(9); !errors.Is(err, errRankRange) {
		t.Errorf("comm err = %v", err)
	}
	if _, err := NewWorld(0); err == nil {
		t.Error("zero-size world accepted")
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("student bug")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not propagated")
	}
}

func TestHaloExchangePattern(t *testing.T) {
	// The pattern the Multi-GPU Stencil lab performs: each rank owns a
	// strip and exchanges one-element halos with neighbours.
	const ranks, local = 4, 8
	w, _ := NewWorld(ranks)
	results := make([][]float32, ranks)
	err := w.Run(func(c *Comm) error {
		r := c.Rank()
		strip := make([]float32, local)
		for i := range strip {
			strip[i] = float32(r*local + i)
		}
		left, right := float32(-1), float32(-1)
		if r > 0 {
			if err := c.SendFloat32s(r-1, 0, strip[:1]); err != nil {
				return err
			}
		}
		if r < ranks-1 {
			if err := c.SendFloat32s(r+1, 1, strip[local-1:]); err != nil {
				return err
			}
		}
		if r > 0 {
			h, err := c.RecvFloat32s(r-1, 1)
			if err != nil {
				return err
			}
			left = h[0]
		}
		if r < ranks-1 {
			h, err := c.RecvFloat32s(r+1, 0)
			if err != nil {
				return err
			}
			right = h[0]
		}
		results[r] = []float32{left, right}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		wantLeft, wantRight := float32(-1), float32(-1)
		if r > 0 {
			wantLeft = float32(r*local - 1)
		}
		if r < ranks-1 {
			wantRight = float32((r + 1) * local)
		}
		if results[r][0] != wantLeft || results[r][1] != wantRight {
			t.Errorf("rank %d halos = %v, want [%v %v]", r, results[r], wantLeft, wantRight)
		}
	}
}
