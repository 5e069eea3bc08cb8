package ranging

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"uwpos/internal/channel"
	"uwpos/internal/dsp"
	"uwpos/internal/geom"
)

// estimatePerSymbol is the reference LS estimator: each of the four OFDM
// symbols is transformed on its own and the PN-unwound per-symbol
// estimates Yᵢ(k)·PNᵢ/X(k) are averaged in the frequency domain — five
// transforms per call where Estimate runs two. It reads ce's numerology,
// band window and base spectrum but keeps its own scratch.
func estimatePerSymbol(ce *ChannelEstimator, stream []float64, coarseIdx int) []float64 {
	p := ce.params
	start := coarseIdx - ce.GuardTaps
	scratch := make([]complex128, p.SymbolLen)
	acc := make([]complex128, p.SymbolLen)
	for s := 0; s < p.NumSymbols; s++ {
		a, b := p.SymbolAt(s)
		for i, v := range stream[start+a : start+b] {
			scratch[i] = complex(v, 0)
		}
		ce.plan.Forward(scratch)
		inv := complex(p.PN[s], 0)
		for k := ce.binLo; k < ce.binHi; k++ {
			x := ce.baseX[k]
			if x == 0 {
				continue
			}
			acc[k] += scratch[k] * inv / x
		}
	}
	scale := 1 / float64(p.NumSymbols)
	for k := ce.binLo; k < ce.binHi; k++ {
		acc[k] *= complex(scale*ce.win[k-ce.binLo], 0)
		acc[p.SymbolLen-k] = cmplx.Conj(acc[k])
	}
	ce.plan.Inverse(acc)
	profile := make([]float64, p.SymbolLen)
	for i, v := range acc {
		profile[i] = cmplx.Abs(v)
	}
	dsp.Normalize(profile)
	return profile
}

// renderedPreamble renders the preamble from a speaker at the origin
// through env's multipath (with scatter) to two microphones 16 cm apart,
// distM away, adds ambient noise, and returns both streams with the
// detector's coarse index on the first.
func renderedPreamble(t *testing.T, env *channel.Environment, distM float64, seed int64) (a, b []float64, coarse int) {
	t.Helper()
	p := testParams()
	rng := rand.New(rand.NewSource(seed))
	const fs = 44100.0
	const txStart = 12000
	tx := geom.Vec3{Z: 1.5}
	micA := geom.Vec3{X: distM, Z: 1.5}
	micB := geom.Vec3{X: distM + 0.16, Z: 1.5}
	a = make([]float64, 60000)
	b = make([]float64, len(a))
	pre := p.Preamble()
	for _, m := range []struct {
		dst []float64
		pos geom.Vec3
	}{{a, micA}, {b, micB}} {
		taps := env.WithScatter(env.ImpulseResponse(tx, m.pos, channel.ImpulseOptions{}), rng)
		for i := range taps {
			taps[i].Amplitude *= 30
		}
		channel.Render(m.dst, pre, taps, txStart, fs)
		env.AddNoise(m.dst, fs, rng)
	}
	dets := NewDetector(p, DetectorConfig{}).Detect(a)
	if len(dets) == 0 {
		t.Fatalf("no preamble detected at %.0f m (seed %d)", distM, seed)
	}
	return a, b, dets[0].CoarseIndex
}

// TestEstimateMatchesPerSymbolOracle checks the one-transform estimator
// against the per-symbol reference on noisy dock and boathouse preambles:
// the profiles agree to 1e-12 of their peak, and the direct-path searches
// that consume them pick the same taps.
func TestEstimateMatchesPerSymbolOracle(t *testing.T) {
	p := testParams()
	envs := map[string]*channel.Environment{"dock": channel.Dock(), "boathouse": channel.Boathouse()}
	for name, env := range envs {
		for _, dist := range []float64{4, 10, 18, 28} {
			for seed := int64(1); seed <= 3; seed++ {
				a, b, coarse := renderedPreamble(t, env, dist, seed)
				ceA, ceB := NewChannelEstimator(p), NewChannelEstimator(p)
				hA, err := ceA.Estimate(a, coarse)
				if err != nil {
					t.Fatal(err)
				}
				hB, err := ceB.Estimate(b, coarse)
				if err != nil {
					t.Fatal(err)
				}
				refA := estimatePerSymbol(ceA, a, coarse)
				refB := estimatePerSymbol(ceB, b, coarse)
				tag := fmt.Sprintf("%s %.0f m seed %d", name, dist, seed)
				for _, pair := range [][2][]float64{{hA, refA}, {hB, refB}} {
					_, peak := dsp.Max(pair[1])
					for i := range pair[0] {
						if d := math.Abs(pair[0][i] - pair[1][i]); d > 1e-12*peak {
							t.Fatalf("%s: tap %d differs by %g (peak %g)", tag, i, d, peak)
						}
					}
				}
				cfg := DirectPathConfig{MaxMicOffset: 7}
				if got, want := JointDirectPath(hA, hB, cfg), JointDirectPath(refA, refB, cfg); got != want {
					t.Errorf("%s: joint direct path %+v, oracle %+v", tag, got, want)
				}
				if got, want := SingleMicDirectPath(hA, cfg), SingleMicDirectPath(refA, cfg); got != want {
					t.Errorf("%s: single-mic direct path %+v, oracle %+v", tag, got, want)
				}
			}
		}
	}
}

// BenchmarkChannelEstimate times one LS channel estimate (Estimate) and
// the per-symbol reference it replaced, on a preamble in white noise.
func BenchmarkChannelEstimate(b *testing.B) {
	p := testParams()
	r := rand.New(rand.NewSource(2))
	stream := make([]float64, 30000)
	for i := range stream {
		stream[i] = 0.01 * r.NormFloat64()
	}
	copy(stream[5000:], p.Preamble())
	ce := NewChannelEstimator(p)
	b.Run("OneTransform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ce.Estimate(stream, 5000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PerSymbol", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			estimatePerSymbol(ce, stream, 5000)
		}
	})
}
