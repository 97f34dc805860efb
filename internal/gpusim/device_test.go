package gpusim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// TestMallocFreeAccounting: allocations add up until Reset frees them
// all, which is how a device's memory is given back.
func TestMallocFreeAccounting(t *testing.T) {
	d := NewDefaultDevice()
	for _, size := range []int{1024, 2048} {
		if _, err := d.Malloc(size); err != nil {
			t.Fatalf("Malloc: %v", err)
		}
	}
	if d.usedBytes != 3072 {
		t.Errorf("usedBytes = %d, want 3072", d.usedBytes)
	}
	if got := d.AllocCount(); got != 2 {
		t.Errorf("AllocCount = %d, want 2", got)
	}
	d.Reset()
	if got := d.AllocCount(); d.usedBytes != 0 || got != 0 {
		t.Errorf("after Reset: %d allocs, %d bytes", got, d.usedBytes)
	}
}

func TestOutOfMemory(t *testing.T) {
	props := DefaultProps()
	props.TotalGlobalMem = 1 << 20
	d := NewDevice(props)
	if _, err := d.Malloc(2 << 20); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Malloc over capacity = %v, want ErrOutOfMemory", err)
	}
	// After a reset, the memory is available again.
	if _, err := d.Malloc(1 << 20); err != nil {
		t.Fatalf("Malloc at capacity: %v", err)
	}
	d.Reset()
	if _, err := d.Malloc(1 << 20); err != nil {
		t.Errorf("Malloc after reset: %v", err)
	}
}

func TestNegativeMalloc(t *testing.T) {
	d := NewDefaultDevice()
	if _, err := d.Malloc(-1); err == nil {
		t.Error("Malloc(-1) succeeded, want error")
	}
}

func TestMemcpyRoundTrip(t *testing.T) {
	d := NewDefaultDevice()
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	p, err := d.Malloc(len(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.MemcpyHtoD(p, src); err != nil {
		t.Fatalf("MemcpyHtoD: %v", err)
	}
	dst := make([]byte, len(src))
	if err := d.MemcpyDtoH(dst, p); err != nil {
		t.Fatalf("MemcpyDtoH: %v", err)
	}
	if string(dst) != string(src) {
		t.Errorf("round trip = %v, want %v", dst, src)
	}
}

func TestMemcpyOutOfBounds(t *testing.T) {
	d := NewDefaultDevice()
	p, _ := d.Malloc(8)
	if err := d.MemcpyHtoD(p, make([]byte, 16)); !errors.Is(err, ErrIllegalAccess) {
		t.Errorf("oversized HtoD = %v, want ErrIllegalAccess", err)
	}
	if err := d.MemcpyHtoD(p.Offset(4), make([]byte, 8)); !errors.Is(err, ErrIllegalAccess) {
		t.Errorf("offset overrun = %v, want ErrIllegalAccess", err)
	}
	if err := d.MemcpyHtoD(p.Offset(-1), make([]byte, 1)); !errors.Is(err, ErrIllegalAccess) {
		t.Errorf("negative offset = %v, want ErrIllegalAccess", err)
	}
}

func TestMemcpyInvalidPtr(t *testing.T) {
	d := NewDefaultDevice()
	bogus := Ptr{alloc: 999}
	if err := d.MemcpyHtoD(bogus, []byte{1}); !errors.Is(err, ErrInvalidPtr) {
		t.Errorf("bogus ptr = %v, want ErrInvalidPtr", err)
	}
}

func TestMemset(t *testing.T) {
	d := NewDefaultDevice()
	p, _ := d.Malloc(4)
	if err := d.Memset(p, 0xAB, 4); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := d.MemcpyDtoH(got, p); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xAB {
			t.Errorf("byte %d = %#x, want 0xAB", i, b)
		}
	}
}

func TestConstMemory(t *testing.T) {
	d := NewDefaultDevice()
	data := Float32Bytes([]float32{1.5, -2.5})
	if err := d.CopyToConst(0, data); err != nil {
		t.Fatal(err)
	}
	if err := d.CopyToConst(d.props.TotalConstMem-1, []byte{0, 0}); !errors.Is(err, ErrIllegalAccess) {
		t.Errorf("const overflow = %v, want ErrIllegalAccess", err)
	}
	got := BytesFloat32(d.constMem[:8])
	if got[0] != 1.5 || got[1] != -2.5 {
		t.Errorf("const mem = %v", got)
	}
}

func TestReset(t *testing.T) {
	d := NewDefaultDevice()
	p, _ := d.Malloc(128)
	_ = p
	d.Reset()
	if d.AllocCount() != 0 || d.usedBytes != 0 {
		t.Errorf("after Reset: %d allocs, %d bytes", d.AllocCount(), d.usedBytes)
	}
}

func TestQueryString(t *testing.T) {
	d := NewDefaultDevice()
	q := d.QueryString()
	for _, want := range []string{"SimGPU", "Computational Capabilities: 3.0", "Warp size: 32"} {
		if !strings.Contains(q, want) {
			t.Errorf("QueryString missing %q:\n%s", want, q)
		}
	}
}

func TestFloat32BytesRoundTrip(t *testing.T) {
	f := func(xs []float32) bool {
		got := BytesFloat32(Float32Bytes(xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			// Compare bit patterns so NaNs round-trip too.
			if Float32Bytes(xs[i : i+1])[0] != Float32Bytes(got[i : i+1])[0] {
				return false
			}
			a, b := xs[i], got[i]
			if a != b && (a == a || b == b) { // not both NaN
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInt32BytesRoundTrip(t *testing.T) {
	f := func(xs []int32) bool {
		got := BytesInt32(Int32Bytes(xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: allocations never alias — writing the full range of one
// allocation never changes the contents of another.
func TestAllocationsDoNotAlias(t *testing.T) {
	f := func(sizes []uint8) bool {
		d := NewDefaultDevice()
		var ptrs []Ptr
		var want [][]byte
		for i, s := range sizes {
			n := int(s)%64 + 1
			p, err := d.Malloc(n)
			if err != nil {
				return false
			}
			fill := make([]byte, n)
			for j := range fill {
				fill[j] = byte(i + 1)
			}
			if err := d.MemcpyHtoD(p, fill); err != nil {
				return false
			}
			ptrs = append(ptrs, p)
			want = append(want, fill)
		}
		for i, p := range ptrs {
			got := make([]byte, len(want[i]))
			if err := d.MemcpyDtoH(got, p); err != nil {
				return false
			}
			for j := range got {
				if got[j] != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocationsOrdered(t *testing.T) {
	d := NewDefaultDevice()
	var ids []uint64
	for i := 0; i < 5; i++ {
		p, err := d.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.alloc)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not ascending: %v", ids)
		}
	}
}

func TestMallocTypedHelpers(t *testing.T) {
	d := NewDefaultDevice()
	in := []float32{1, 2, 3, 4}
	p, err := d.MallocFloat32(4, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.ReadFloat32(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("elem %d = %v, want %v", i, out[i], in[i])
		}
	}
	ip, err := d.MallocInt32(3, []int32{-1, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	iv, err := d.ReadInt32(ip, 3)
	if err != nil {
		t.Fatal(err)
	}
	if iv[0] != -1 || iv[2] != 7 {
		t.Errorf("int read = %v", iv)
	}
}
