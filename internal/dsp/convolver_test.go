package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// convolveDirect is the full linear convolution h ⊛ x (length
// len(h)+len(x)-1) by the textbook double loop: the Convolver's oracle.
func convolveDirect(h, x []float64) []float64 {
	out := make([]float64, len(h)+len(x)-1)
	for i, hv := range h {
		for j, xv := range x {
			out[i+j] += hv * xv
		}
	}
	return out
}

// TestConvolverMatchesConvolve: every offset, filter length up to the
// limit and clipping case agrees with the direct full convolution placed
// into dst by hand.
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
		if c.maxH != sz.maxH {
			t.Fatalf("maxH = %d, want %d", c.maxH, sz.maxH)
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
			for k, v := range convolveDirect(h, x) {
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

// directFilter is the direct-form causal FIR (zero initial state, output
// as long as x): the oracle for the overlap-save FIRStream.
func directFilter(h, x []float64) []float64 {
	out := make([]float64, len(x))
	for n := range x {
		var s float64
		for k := 0; k < min(len(h), n+1); k++ {
			s += h[k] * x[n-k]
		}
		out[n] = s
	}
	return out
}

// firOracle is FIRStream's contract computed directly: the causal output
// advanced by the group delay, zero-filled past the end of x. tol is the
// allowed error per sample: 1e-9 of the sample's scale Σ|h[k]·x[n+d-k]|,
// plus 1e-12 of the largest scale, because a sample whose neighbourhood
// is all zeros is exactly 0 directly but still carries the rounding
// error of the rest of its FFT block.
func firOracle(h, x []float64) (want, tol []float64) {
	d := (len(h) - 1) / 2
	abs := make([]float64, len(h))
	for i, v := range h {
		abs[i] = math.Abs(v)
	}
	absX := make([]float64, len(x))
	for i, v := range x {
		absX[i] = math.Abs(v)
	}
	y, ya := directFilter(h, x), directFilter(abs, absX)
	want, tol = make([]float64, len(x)), make([]float64, len(x))
	if d < len(x) {
		copy(want, y[d:])
		copy(tol, ya[d:])
	}
	peak := 0.0
	for _, v := range tol {
		peak = max(peak, v)
	}
	for i, v := range tol {
		tol[i] = 1e-9 * (v + 1e-3*peak)
	}
	return want, tol
}

// feedFIR runs x through a fresh stream of f cut at cuts (sorted, within
// [0, len(x)]) and returns the concatenated output.
func feedFIR(f *FIR, x []float64, cuts []int) []float64 {
	s := f.Stream()
	defer s.Release()
	var got []float64
	prev := 0
	for _, c := range cuts {
		got = append(got, s.Feed(x[prev:c])...)
		prev = c
	}
	got = append(got, s.Feed(x[prev:])...)
	return append(got, s.Flush()...)
}

// TestFIRStreamMatchesDirect: for filters shorter and longer than the
// stream, streams shorter than the group delay, and random partitions
// with empty and one-sample buffers, the overlap-save output agrees with
// the direct-form oracle within firOracle's tolerance and is bit-identical
// across partitions.
func TestFIRStreamMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ taps, xLen int }{
		{255, 20000}, {255, 5000}, {255, 300}, {255, 200}, {255, 127}, {255, 40}, {255, 1}, {255, 0},
		{1, 50}, {2, 50}, {33, 1000}, {64, 3000}, {31, 15},
	} {
		h := make([]float64, tc.taps)
		for i := range h {
			h[i] = rng.NormFloat64()
		}
		x := make([]float64, tc.xLen)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		f := NewFIR(h)
		want, tol := firOracle(h, x)
		oneShot := feedFIR(f, x, nil)
		if len(oneShot) != len(x) {
			t.Fatalf("taps %d x %d: %d outputs, want %d", tc.taps, tc.xLen, len(oneShot), len(x))
		}
		for i := range want {
			if math.Abs(oneShot[i]-want[i]) > tol[i] {
				t.Fatalf("taps %d x %d: sample %d = %g, want %g (tolerance %g)", tc.taps, tc.xLen, i, oneShot[i], want[i], tol[i])
			}
		}
		partitions := [][]int{
			onesCuts(len(x)),       // one-sample buffers
			{0, 0, len(x), len(x)}, // empty buffers around the whole stream
		}
		for trial := 0; trial < 6; trial++ {
			cuts := make([]int, rng.Intn(12))
			for i := range cuts {
				cuts[i] = rng.Intn(len(x) + 1)
			}
			sort.Ints(cuts)
			partitions = append(partitions, cuts)
		}
		for _, cuts := range partitions {
			got := feedFIR(f, x, cuts)
			if len(got) != len(oneShot) {
				t.Fatalf("taps %d x %d cuts %v: %d outputs, want %d", tc.taps, tc.xLen, cuts, len(got), len(oneShot))
			}
			for i := range got {
				if got[i] != oneShot[i] {
					t.Fatalf("taps %d x %d cuts %v: sample %d = %g, one-shot %g", tc.taps, tc.xLen, cuts, i, got[i], oneShot[i])
				}
			}
		}
	}
}

// onesCuts cuts [0, n) into one-sample buffers.
func onesCuts(n int) []int {
	cuts := make([]int, n)
	for i := range cuts {
		cuts[i] = i
	}
	return cuts
}

// TestFIRBlockSizing: the 255-tap band-limit filter runs on 2048-point
// blocks, and every block yields at least one output.
func TestFIRBlockSizing(t *testing.T) {
	for _, tc := range []struct{ nh, want int }{{255, 2048}, {1, 2}, {33, 256}} {
		if got := firBlock(tc.nh); got != tc.want {
			t.Errorf("firBlock(%d) = %d, want %d", tc.nh, got, tc.want)
		}
	}
	for nh := 1; nh < 600; nh++ {
		if b := firBlock(nh); b < nh || !IsPow2(b) {
			t.Fatalf("firBlock(%d) = %d", nh, b)
		}
	}
}

// TestFIRStreamLifecycle: misuse panics, Release is idempotent, and a
// warm stream's Feed allocates nothing.
func TestFIRStreamLifecycle(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("no taps", func() { NewFIR(nil) })
	f := NewFIR(FIRBandpass(255, 1000, 5000, 44100))
	if f.n != 2048 || f.delay != 127 {
		t.Fatalf("block %d delay %d", f.n, f.delay)
	}
	s := f.Stream()
	s.Flush()
	expectPanic("feed after flush", func() { s.Feed([]float64{1}) })
	expectPanic("flush after flush", func() { s.Flush() })
	s.Release()
	s.Release()

	s = f.Stream()
	defer s.Release()
	buf := make([]float64, 4096)
	for i := range buf {
		buf[i] = float64(i%7) - 3
	}
	for i := 0; i < 8; i++ {
		s.Feed(buf)
	}
	if allocs := testing.AllocsPerRun(50, func() { s.Feed(buf) }); allocs != 0 {
		t.Fatalf("warm Feed allocates %.1f times, want 0", allocs)
	}
	if s.Fed() != 4096*(8+51) {
		t.Fatalf("Fed = %d", s.Fed())
	}
}
