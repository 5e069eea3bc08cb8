package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCrossCorrelateFindsEmbeddedTemplate(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	h := make([]float64, 200)
	for i := range h {
		h[i] = r.NormFloat64()
	}
	x := make([]float64, 2000)
	for i := range x {
		x[i] = 0.01 * r.NormFloat64()
	}
	const at = 700
	for i, v := range h {
		x[at+i] += v
	}
	idx, _ := Max(scanOne(h, x))
	if idx != at {
		t.Fatalf("peak at %d, want %d", idx, at)
	}
}

// TestCrossCorrelateDirectEqualsFFT pins the FFT scan, on both block
// sizings, to the direct sliding-window oracle.
func TestCrossCorrelateDirectEqualsFFT(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	x := make([]float64, 513)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for _, nh := range []int{7, 100} {
		h := make([]float64, nh)
		for i := range h {
			h[i] = r.NormFloat64()
		}
		want := normalizedDirect(x, h)
		closeTo(t, "low-latency block", scanOne(h, x), want, 1e-9)
		closeTo(t, "throughput block", scan(NewMatcherBank(NewMatcher(h)), x)[0], want, 1e-9)
	}
}

func TestCrossCorrelateEdgeCases(t *testing.T) {
	if got := scanOne([]float64{1}, nil); len(got) != 0 {
		t.Errorf("empty stream gave %d lags", len(got))
	}
	if got := scanOne([]float64{1, 2, 3}, []float64{1, 2}); len(got) != 0 {
		t.Errorf("template longer than stream gave %d lags", len(got))
	}
	got := scanOne([]float64{1, 2, 3}, []float64{1, 2, 3})
	if len(got) != 1 || math.Abs(got[0]-1) > 1e-12 {
		t.Errorf("equal-length correlation = %v, want [1]", got)
	}
	got = scanOne([]float64{1, 2, 3}, []float64{-2, -4, -6, 1})
	if len(got) != 2 || math.Abs(got[0]+1) > 1e-12 {
		t.Errorf("negated-template correlation = %v, want [-1 ...]", got)
	}
}

func TestNormalizedCrossCorrelateBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, 400)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		h := make([]float64, 80)
		for i := range h {
			h[i] = r.NormFloat64()
		}
		for _, v := range scanOne(h, x) {
			if v > 1+1e-9 || v < -1-1e-9 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNormalizedCrossCorrelatePerfectMatchIsOne(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	h := make([]float64, 128)
	for i := range h {
		h[i] = r.NormFloat64()
	}
	x := make([]float64, 512)
	copy(x[200:], h)
	corr := scanOne(h, x)
	if math.Abs(corr[200]-1) > 1e-9 {
		t.Fatalf("exact match correlation = %g, want 1", corr[200])
	}
	// Scaling x must not change the normalized value.
	for i := range x {
		x[i] *= 37.5
	}
	corr = scanOne(h, x)
	if math.Abs(corr[200]-1) > 1e-9 {
		t.Fatalf("scaled match correlation = %g, want 1", corr[200])
	}
}

func TestNormalizedCrossCorrelateZeroWindow(t *testing.T) {
	x := make([]float64, 100) // all zeros
	h := []float64{1, -1, 1}
	for _, v := range scanOne(h, x) {
		if v != 0 {
			t.Fatalf("zero-energy window gave %g, want 0", v)
		}
	}
	// Zero-energy template.
	x[3] = 1
	for _, v := range scanOne(make([]float64, 4), x) {
		if v != 0 {
			t.Fatalf("zero template gave %g, want 0", v)
		}
	}
}

func TestSegmentCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := SegmentCorrelation(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %g, want 1", got)
	}
	neg := []float64{-1, -2, -3, -4}
	if got := SegmentCorrelation(a, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti correlation = %g, want -1", got)
	}
	if got := SegmentCorrelation(a, []float64{1, 2}); got != 0 {
		t.Errorf("length mismatch should give 0, got %g", got)
	}
	if got := SegmentCorrelation(a, make([]float64, 4)); got != 0 {
		t.Errorf("zero-energy should give 0, got %g", got)
	}
}

func TestCorrelationShiftProperty(t *testing.T) {
	// Shifting the embedded template shifts the correlation peak equally.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := make([]float64, 64)
		for i := range h {
			h[i] = r.NormFloat64()
		}
		shift := int(uint(seed) % 500)
		x := make([]float64, 700)
		copy(x[shift:], h)
		idx, _ := Max(scanOne(h, x))
		return idx == shift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
