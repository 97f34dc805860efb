package wb

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestVectorRoundTrip(t *testing.T) {
	f := func(xs []float32) bool {
		for i, x := range xs {
			if x != x { // drop NaN: text format round-trips numbers only
				xs[i] = 0
			}
		}
		got, err := ParseVector(VectorBytes(xs))
		if err != nil {
			return false
		}
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

func TestIntVectorRoundTrip(t *testing.T) {
	f := func(xs []int32) bool {
		got, err := ParseIntVector(IntVectorBytes(xs))
		if err != nil || len(got) != len(xs) {
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

func TestMatrixRoundTrip(t *testing.T) {
	m := []float32{1, 2.5, -3, 0, 1e-5, 7}
	got, r, c, err := ParseMatrix(MatrixBytes(m, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r != 2 || c != 3 {
		t.Errorf("dims = %dx%d", r, c)
	}
	for i := range m {
		if got[i] != m[i] {
			t.Errorf("elem %d = %v, want %v", i, got[i], m[i])
		}
	}
}

// TestMatrixSizeMismatch: a generator whose data does not fill the
// dimensions it names is stopped where the file is rendered, with the
// dimensions in the message, not left to surface as a parse error in
// some later run.
func TestMatrixSizeMismatch(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		render     func()
	}{
		{"matrix", "wb: matrix data 3 != 2 x 2", func() { MatrixBytes([]float32{1, 2, 3}, 2, 2) }},
		{"image", "wb: image data 5 != 3 x 2", func() { ImageBytes(make([]byte, 5), 3, 2) }},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Errorf("%s: panic = %v, want %q", tc.name, r, tc.want)
				}
			}()
			tc.render()
		}()
	}
}

func TestImageRoundTrip(t *testing.T) {
	pix := make([]byte, 16*9)
	for i := range pix {
		pix[i] = byte(i * 3)
	}
	got, w, h, err := ParseImage(ImageBytes(pix, 16, 9))
	if err != nil {
		t.Fatal(err)
	}
	if w != 16 || h != 9 {
		t.Errorf("dims = %dx%d", w, h)
	}
	for i := range pix {
		if got[i] != pix[i] {
			t.Fatalf("pixel %d = %d, want %d", i, got[i], pix[i])
		}
	}
}

func TestImageBadMaxval(t *testing.T) {
	if _, _, _, err := ParseImage([]byte("2 2 128\n0 0\n0 0\n")); err == nil {
		t.Error("bad maxval accepted")
	}
}

func TestCSRRoundTripAndMulVec(t *testing.T) {
	m := &CSR{
		Rows: 3, Cols: 3,
		RowPtr: []int32{0, 2, 3, 5},
		ColIdx: []int32{0, 2, 1, 0, 2},
		Vals:   []float32{1, 2, 3, 4, 5},
	}
	got, err := ParseCSR(CSRBytes(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 3 || len(got.Vals) != 5 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	y := got.MulVec([]float32{1, 2, 3})
	want := []float32{1*1 + 2*3, 3 * 2, 4*1 + 5*3}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	parsers := map[string]func([]byte) error{
		"ParseVector":    func(d []byte) error { _, err := ParseVector(d); return err },
		"ParseIntVector": func(d []byte) error { _, err := ParseIntVector(d); return err },
		"ParseMatrix":    func(d []byte) error { _, _, _, err := ParseMatrix(d); return err },
		"ParseImage":     func(d []byte) error { _, _, _, err := ParseImage(d); return err },
		"ParseCSR":       func(d []byte) error { _, err := ParseCSR(d); return err },
	}
	cases := map[string][]string{
		"ParseVector":    {"", "abc", "3\n1.0 2.0", "-1"},
		"ParseIntVector": {"", "2\n1 x", "3\n1 2", "-1"},
		"ParseMatrix":    {"", "2", "2 2\n1 2 3", "-1 2", "1 1\nnan?"},
		"ParseImage":     {"", "1 1", "1 1 255", "1 1 255\n256", "1 1 128\n0"},
		"ParseCSR":       {"", "1 1", "1 1 1\n0 1\n0", "-1 0 0"},
	}
	for name, inputs := range cases {
		for _, c := range inputs {
			if err := parsers[name]([]byte(c)); err == nil {
				t.Errorf("%s(%q) succeeded", name, c)
			}
		}
	}
}

func TestCompareFloats(t *testing.T) {
	want := []float32{1, 2, 3}
	if r := CompareFloats([]float32{1, 2, 3}, want, DefaultTolerance); !r.Correct {
		t.Errorf("exact match flagged wrong: %+v", r)
	}
	if r := CompareFloats([]float32{1, 2.0001, 3}, want, DefaultTolerance); !r.Correct {
		t.Errorf("within tolerance flagged wrong: %+v", r)
	}
	r := CompareFloats([]float32{1, 5, 9}, want, DefaultTolerance)
	if r.Correct || r.Mismatches != 2 || r.FirstBad != 1 {
		t.Errorf("mismatch detection: %+v", r)
	}
	if !strings.Contains(r.Message, "element 1") {
		t.Errorf("message = %q", r.Message)
	}
	if r := CompareFloats([]float32{1, 2}, want, DefaultTolerance); r.Correct {
		t.Error("length mismatch accepted")
	}
	nan := float32(0)
	nan /= nan
	if r := CompareFloats([]float32{nan, 2, 3}, want, DefaultTolerance); r.Correct {
		t.Error("NaN accepted")
	}
}

func TestCompareFloatsRelativeTolerance(t *testing.T) {
	// Large values get proportionally more slack.
	want := []float32{1e6}
	if r := CompareFloats([]float32{1e6 + 5000}, want, DefaultTolerance); !r.Correct {
		t.Errorf("relative tolerance not applied: %+v", r)
	}
	if r := CompareFloats([]float32{1e6 + 50000}, want, DefaultTolerance); r.Correct {
		t.Error("far-off large value accepted")
	}
}

func TestCompareInts(t *testing.T) {
	if r := CompareInts([]int32{1, 2}, []int32{1, 2}); !r.Correct {
		t.Error("exact ints flagged wrong")
	}
	if r := CompareInts([]int32{1, 3}, []int32{1, 2}); r.Correct {
		t.Error("wrong ints accepted")
	}
}

func TestCompareBytesSlack(t *testing.T) {
	if r := CompareBytes([]byte{100}, []byte{101}, 1); !r.Correct {
		t.Error("within-slack byte flagged wrong")
	}
	if r := CompareBytes([]byte{100}, []byte{103}, 1); r.Correct {
		t.Error("out-of-slack byte accepted")
	}
}

func TestDatasetInput(t *testing.T) {
	d := &Dataset{Inputs: []File{{Name: "input0.raw", Data: []byte("x")}}}
	if got := d.Input("input0.raw"); string(got) != "x" {
		t.Errorf("Input = %q", got)
	}
	if got := d.Input("missing"); got != nil {
		t.Errorf("missing input = %q", got)
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace()
	tr.Logf(LevelTrace, "The input length is %d", 64)
	tr.RecordSpan(TimeCopy, "Copying input memory to the GPU", time.Millisecond)
	tr.RecordSpan(TimeCompute, "Performing CUDA computation", 5*time.Millisecond)

	want := "[TRACE] The input length is 64\n" +
		"[TIME] Copy: 1ms (Copying input memory to the GPU)\n" +
		"[TIME] Compute: 5ms (Performing CUDA computation)\n"
	if out := tr.String(); out != want {
		t.Errorf("trace output:\n%s\nwant:\n%s", out, want)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			for j := 0; j < 100; j++ {
				tr.Logf(LevelInfo, "goroutine %d iter %d", i, j)
			}
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := len(tr.logs); got != 800 {
		t.Errorf("logs = %d, want 800", got)
	}
}

func TestLargeVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float32, 10000)
	for i := range xs {
		xs[i] = rng.Float32()*200 - 100
	}
	got, err := ParseVector(VectorBytes(xs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("elem %d differs", i)
		}
	}
}
