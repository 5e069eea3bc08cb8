package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// TestConvolverMatchesConvolve: every offset, filter length up to the
// limit and clipping case agrees with the one-shot full convolution
// placed into dst by hand.
func TestConvolverMatchesConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// One block (filters long against x) and many segments (filters short
	// against x).
	for _, sz := range []struct{ xLen, maxH int }{{700, 325}, {5000, 100}} {
		x := make([]float64, sz.xLen)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c := NewConvolver(x, sz.maxH)
		if got := c.MaxFilterLen(); got != sz.maxH {
			t.Fatalf("MaxFilterLen = %d, want %d", got, sz.maxH)
		}
		for _, tc := range []struct{ hLen, at int }{
			{1, 0}, {33, 50}, {sz.maxH, 10}, {sz.maxH / 2, -sz.xLen / 2}, {sz.maxH / 2, sz.xLen + 900},
			{sz.maxH / 3, -sz.xLen - 2000}, {sz.maxH / 3, 3 * sz.xLen}, {sz.maxH / 5, -1},
		} {
			h := make([]float64, tc.hLen)
			for i := range h {
				h[i] = rng.NormFloat64()
			}
			dst := make([]float64, sz.xLen+1000)
			want := make([]float64, len(dst))
			for k, v := range Convolve(h, x) {
				if j := tc.at + k; j >= 0 && j < len(want) {
					want[j] = v
				}
			}
			c.AddConvolved(dst, tc.at, h)
			for i := range dst {
				if math.Abs(dst[i]-want[i]) > 1e-9 {
					t.Fatalf("x %d, h %d at %d: dst[%d] = %g, want %g", sz.xLen, tc.hLen, tc.at, i, dst[i], want[i])
				}
			}
		}
		c.Release()
	}
}

// TestConvolverBlockSizing: a filter long against x gets one padded
// block; a short one gets overlap-add segments.
func TestConvolverBlockSizing(t *testing.T) {
	for _, tc := range []struct{ nx, nh, want int }{
		{700, 325, 1024},
		{12260, 3000, 8192},
		{44100, 3000, 8192},
		{1, 1, 2},
	} {
		if got := convolverBlock(tc.nx, tc.nh); got != tc.want {
			t.Errorf("convolverBlock(%d, %d) = %d, want %d", tc.nx, tc.nh, got, tc.want)
		}
	}
}

func TestConvolverRejectsMisuse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("empty filter limit", func() { NewConvolver(make([]float64, 10), 0) })
	c := NewConvolver(make([]float64, 20), 13)
	expectPanic("filter too long", func() { c.AddConvolved(make([]float64, 64), 0, make([]float64, 14)) })
	c.Release()
	c.Release() // idempotent
	// An empty signal convolves to nothing.
	dst := []float64{1, 2, 3}
	e := NewConvolver(nil, 4)
	e.AddConvolved(dst, 0, []float64{1, 1})
	e.Release()
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Errorf("empty signal changed dst: %v", dst)
	}
}
