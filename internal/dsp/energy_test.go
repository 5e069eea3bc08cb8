package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// twoSum is the error-free transformation s+err = a+b (Knuth): s is the
// rounded sum, err the exact rounding error.
func twoSum(a, b float64) (s, err float64) {
	s = a + b
	bv := s - a
	av := s - bv
	return s, (b - bv) + (a - av)
}

// exactAccumulator maintains a Shewchuk expansion — a list of
// nonoverlapping float64 components whose mathematical sum is EXACTLY
// the sum of everything added — giving an exact-summation reference that
// runs at float64 speed instead of big.Float speed.
type exactAccumulator struct {
	e []float64
}

func (a *exactAccumulator) add(b float64) {
	q := b
	out := a.e[:0]
	for _, ei := range a.e {
		var err float64
		q, err = twoSum(q, ei)
		if err != 0 {
			out = append(out, err)
		}
	}
	if q != 0 {
		out = append(out, q)
	}
	a.e = out
}

// value rounds the exact sum to float64, summing components in
// increasing magnitude order (faithful to within 1 ulp).
func (a *exactAccumulator) value() float64 {
	var s float64
	for _, ei := range a.e {
		s += ei
	}
	return s
}

// TestCompensatedEnergyMatchesExact10M is the regression test for the
// Neumaier-compensated energy accumulation behind every normalized
// correlation (prefixSums, carried across chunks by BankStream): on a
// 10^7-sample stream with ~8 decades of dynamic range, the compensated
// prefix must stay within a few ulps of an exact reference — where a
// plain running float64 sum drifts by orders of magnitude more. The
// window energies are what every normalized correlation divides by, so
// drift here directly biases late-stream detection scores.
func TestCompensatedEnergyMatchesExact10M(t *testing.T) {
	const n = 10_000_000
	r := rand.New(rand.NewSource(64))
	x := make([]float64, n)
	for i := range x {
		// Wide dynamic range: magnitudes from ~1e-4 to ~1e4, so small
		// squares constantly fall below the running sum's rounding step.
		x[i] = r.NormFloat64() * math.Pow(10, r.Float64()*8-4)
	}

	prefix := make([]float64, n+1)
	prefixSums(prefix[1:], x, 0, 0)

	// Exact reference (error-free Shewchuk expansion) and a plain float64
	// sum for the drift comparison, checked at log-spaced probe points.
	probes := map[int]bool{1: true, n: true}
	for p := 10; p < n; p *= 10 {
		probes[p] = true
		probes[p*3] = true
	}
	var exact exactAccumulator
	var plain float64
	var worstComp, worstPlain float64
	for i, v := range x {
		exact.add(v * v)
		plain += v * v
		if probes[i+1] {
			want := exact.value()
			compErr := math.Abs(prefix[i+1]-want) / want
			plainErr := math.Abs(plain-want) / want
			if compErr > worstComp {
				worstComp = compErr
			}
			if plainErr > worstPlain {
				worstPlain = plainErr
			}
			if compErr > 1e-15 {
				t.Fatalf("prefix[%d]: compensated rel err %g exceeds 1e-15", i+1, compErr)
			}
		}
	}
	if worstComp > worstPlain {
		t.Errorf("compensated sum (%g) drifted more than the plain sum (%g)", worstComp, worstPlain)
	}
	t.Logf("worst rel err over %d probes: compensated %.3g, plain %.3g", len(probes), worstComp, worstPlain)

	// A session fed the same stream in odd-sized chunks carries the running
	// state across chunk and block boundaries: its rolling prefix window at
	// the end of the stream holds exactly the one-pass prefix values.
	s := NewMatcherBankLowLatency(NewMatcher(x[:1024])).Stream()
	for off := 0; off < n; off += 65521 {
		s.Feed(x[off:min(off+65521, n)])
	}
	for i, v := range s.pre[:s.bufLen+1] {
		if want := prefix[s.start+i]; v != want {
			t.Fatalf("session prefix at %d: %v vs one-pass %v", s.start+i, v, want)
		}
	}
	s.Flush()
}
