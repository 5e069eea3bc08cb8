package ranging

import (
	"fmt"
	"math/cmplx"

	"uwpos/internal/dsp"
	"uwpos/internal/sig"
)

// ChannelEstimator computes least-squares channel profiles from received
// preambles (§2.2.1). It owns reusable FFT scratch, so one estimator per
// goroutine.
type ChannelEstimator struct {
	params sig.Params
	plan   *dsp.Plan
	baseX  []complex128 // X(k), the transmitted base-symbol spectrum (shared, read-only)
	binLo  int
	binHi  int

	// GuardTaps is how many taps before the coarse-sync point the profile
	// exposes, so a direct path that arrives *before* the strongest
	// correlation peak is still visible. The profile index g corresponds
	// to delay (g − GuardTaps) samples relative to coarse sync.
	GuardTaps int

	// BandWindow tapers the occupied band before transforming back to the
	// delay domain. A rectangular band leaves −13 dB sinc sidelobes that
	// the λ=0.2 direct-path threshold can mistake for early arrivals;
	// Hann (the default) trades delay resolution for −31 dB sidelobes.
	BandWindow dsp.Window

	scratch []complex128
	acc     []complex128
	win     []float64
}

// NewChannelEstimator builds an estimator for the preamble numerology.
func NewChannelEstimator(p sig.Params) *ChannelEstimator {
	lo, hi := p.BinRange()
	// The plan's Bluestein setup and the base spectrum are cached
	// package-wide, so per-trial estimator construction costs only the
	// scratch slices below.
	return &ChannelEstimator{
		params:     p,
		plan:       dsp.NewPlan(p.SymbolLen),
		baseX:      sig.SharedSymbolSpectrum(p),
		binLo:      lo,
		binHi:      hi,
		GuardTaps:  256,
		BandWindow: dsp.Hann,
		scratch:    make([]complex128, p.SymbolLen),
		acc:        make([]complex128, p.SymbolLen),
		win:        dsp.MakeWindow(dsp.Hann, hi-lo),
	}
}

// SetBandWindow changes the band taper (for ablation studies).
func (ce *ChannelEstimator) SetBandWindow(w dsp.Window) {
	ce.BandWindow = w
	ce.win = dsp.MakeWindow(w, ce.binHi-ce.binLo)
}

// Estimate returns the magnitude channel profile |h(n)| of length
// SymbolLen, normalized to peak 1, for a preamble whose coarse start index
// is coarseIdx in the stream. The estimator backs off by GuardTaps so
// early-arriving direct paths are not lost to circular wrap-around;
// profile index g maps to arrival sample coarseIdx − GuardTaps + g.
//
// The LS estimate is Ĥ(k) = ¼ Σᵢ Yᵢ(k) / (PNᵢ·X(k)) over the occupied
// band, then |IFFT| back to the delay domain. The DFT is linear, so
// Σᵢ PNᵢ·Yᵢ = FFT(Σᵢ PNᵢ·yᵢ): the PN-signed symbols are summed in the
// time domain and transformed once (PN ∈ {−1, +1}, so 1/PN == PN).
func (ce *ChannelEstimator) Estimate(stream []float64, coarseIdx int) ([]float64, error) {
	p := ce.params
	start := coarseIdx - ce.GuardTaps
	if start < 0 {
		return nil, fmt.Errorf("ranging: coarse index %d leaves no room for the %d-tap guard", coarseIdx, ce.GuardTaps)
	}
	if start+p.PreambleLen() > len(stream) {
		return nil, fmt.Errorf("ranging: preamble at %d overruns stream of %d samples", coarseIdx, len(stream))
	}
	for i := range ce.scratch {
		ce.scratch[i] = 0
	}
	for s := 0; s < p.NumSymbols; s++ {
		a, b := p.SymbolAt(s)
		pn := p.PN[s]
		for i, v := range stream[start+a : start+b] {
			ce.scratch[i] += complex(pn*v, 0)
		}
	}
	ce.plan.Forward(ce.scratch)
	for i := range ce.acc {
		ce.acc[i] = 0
	}
	scale := 1 / float64(p.NumSymbols)
	for k := ce.binLo; k < ce.binHi; k++ {
		x := ce.baseX[k]
		if x == 0 {
			continue
		}
		ce.acc[k] = ce.scratch[k] / x * complex(scale*ce.win[k-ce.binLo], 0)
		// Conjugate-symmetric counterpart for a real impulse response.
		ce.acc[p.SymbolLen-k] = cmplx.Conj(ce.acc[k])
	}
	ce.plan.Inverse(ce.acc)
	profile := make([]float64, p.SymbolLen)
	for i, v := range ce.acc {
		profile[i] = cmplx.Abs(v)
	}
	dsp.Normalize(profile)
	return profile, nil
}

// SubcarrierSNR estimates the per-bin SNR (dB) of a received preamble at
// coarseIdx: the mean of the four per-symbol LS estimates gives the signal,
// their dispersion around that mean gives the noise (Fig. 22 methodology).
// Returns one (freqHz, snrDB) pair per occupied bin.
func (ce *ChannelEstimator) SubcarrierSNR(stream []float64, coarseIdx int) ([]SNRPoint, error) {
	p := ce.params
	start := coarseIdx
	if start < 0 || start+p.PreambleLen() > len(stream) {
		return nil, fmt.Errorf("ranging: preamble at %d out of stream bounds", coarseIdx)
	}
	nb := ce.binHi - ce.binLo
	perSym := make([][]complex128, p.NumSymbols)
	for s := 0; s < p.NumSymbols; s++ {
		a, b := p.SymbolAt(s)
		seg := stream[start+a : start+b]
		for i, v := range seg {
			ce.scratch[i] = complex(v, 0)
		}
		ce.plan.Forward(ce.scratch)
		hs := make([]complex128, nb)
		for k := ce.binLo; k < ce.binHi; k++ {
			x := ce.baseX[k]
			if x == 0 {
				continue
			}
			hs[k-ce.binLo] = ce.scratch[k] * complex(p.PN[s], 0) / x
		}
		perSym[s] = hs
	}
	out := make([]SNRPoint, nb)
	for b := 0; b < nb; b++ {
		var mean complex128
		for s := range perSym {
			mean += perSym[s][b]
		}
		mean /= complex(float64(len(perSym)), 0)
		var noise float64
		for s := range perSym {
			d := perSym[s][b] - mean
			noise += real(d)*real(d) + imag(d)*imag(d)
		}
		noise /= float64(len(perSym) - 1)
		sigPow := real(mean)*real(mean) + imag(mean)*imag(mean)
		freq := float64(ce.binLo+b) * p.SampleRate / float64(p.SymbolLen)
		out[b] = SNRPoint{FreqHz: freq, SNRDB: dsp.DB(sigPow / (noise + 1e-30))}
	}
	return out, nil
}

// SNRPoint is a per-subcarrier SNR sample.
type SNRPoint struct {
	FreqHz float64
	SNRDB  float64
}
