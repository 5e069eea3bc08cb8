package channel

import (
	"math"

	"uwpos/internal/dsp"
)

// kernelTaps is the support of the windowed-sinc fractional-delay kernel
// each arrival is spread over. It keeps sub-sample timing, which the 16 cm
// dual-mic geometry needs (the mics are at most ~4.7 samples apart).
const kernelTaps = 33

// Arrival is one tap of an impulse response placed on a destination
// timeline: the fractional sample index at which its copy of the wave
// starts, and its signed linear amplitude.
type Arrival struct {
	Index     float64
	Amplitude float64
}

// Source is one transmitted waveform prepared for rendering through many
// channels. The wave's spectrum is computed once, in NewSource. Each Add
// then sums every arrival's fractional-delay kernel into one sparse
// impulse response and convolves it with the wave by FFT (dsp.Convolver),
// so a render's cost does not grow with the number of taps.
//
// The spectrum and scratch come from the dsp pool; Release hands them
// back. A Source is not safe for concurrent use.
type Source struct {
	waveLen int
	conv    *dsp.Convolver
	ir      []float64 // impulse-response block, as long as conv accepts
	kern    [kernelTaps]float64
}

// NewSource prepares wave for rendering through impulse responses whose
// arrivals lie within span samples of each other (last index minus
// first). The FFT size follows from the wave length and that span, so
// such a response convolves in one pass; a wider one still renders
// correctly, in several.
func NewSource(wave []float64, span float64) *Source {
	s := &Source{waveLen: len(wave)}
	if len(wave) == 0 {
		return s
	}
	irLen := int(math.Ceil(max(span, 0))) + kernelTaps
	s.conv = dsp.NewConvolver(wave, irLen)
	s.ir = dsp.GetF64(irLen)
	return s
}

// Add adds the wave into dst through the impulse response arr: each
// arrival contributes a copy starting at its fractional index, realized
// with a windowed-sinc fractional-delay kernel. Whatever falls outside
// dst is dropped. Once the Source is built, Add allocates nothing.
func (s *Source) Add(dst []float64, arr []Arrival) {
	if s.conv == nil || len(arr) == 0 {
		return
	}
	const half = kernelTaps / 2
	// Impulse-response sample j of a block starting at b0 feeds the copy
	// that starts at dst[b0+j]; only samples whose copy overlaps dst count.
	first, last := math.MaxInt, math.MinInt
	for _, a := range arr {
		w := int(math.Floor(a.Index)) - half
		first, last = min(first, w), max(last, w+kernelTaps-1)
	}
	first, last = max(first, 1-s.waveLen), min(last, len(dst)-1)
	for b0 := first; b0 <= last; b0 += len(s.ir) {
		ir := s.ir[:min(len(s.ir), last+1-b0)]
		clear(ir)
		for _, a := range arr {
			whole := math.Floor(a.Index)
			w := int(whole) - half - b0
			if w+kernelTaps <= 0 || w >= len(ir) {
				continue
			}
			dsp.FractionalDelayInto(s.kern[:], a.Index-whole)
			for k, v := range s.kern {
				if j := w + k; j >= 0 && j < len(ir) {
					ir[j] += a.Amplitude * v
				}
			}
		}
		s.conv.AddConvolved(dst, b0, ir)
	}
}

// Release returns the Source's spectrum and scratch to the dsp pool. The
// Source must not be used afterwards.
func (s *Source) Release() {
	if s.conv == nil {
		return
	}
	s.conv.Release()
	dsp.PutF64(s.ir)
	s.conv, s.ir = nil, nil
}

// Render adds the waveform wave, transmitted at sample index txStart of
// the destination timeline, into dst through the given taps at sample
// rate fs. It is the one-shot form of Source: tap delays become
// fractional arrival indices, so sub-sample timing is preserved, and
// samples outside dst are dropped.
func Render(dst, wave []float64, taps []Tap, txStart int, fs float64) {
	if len(taps) == 0 {
		return
	}
	arr := make([]Arrival, len(taps))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, t := range taps {
		idx := float64(txStart) + t.DelaySec*fs
		arr[i] = Arrival{Index: idx, Amplitude: t.Amplitude}
		lo, hi = min(lo, idx), max(hi, idx)
	}
	// Arrivals whose copy cannot reach dst do not widen the transform.
	lo, hi = max(lo, -float64(len(wave))), min(hi, float64(len(dst)))
	src := NewSource(wave, hi-lo)
	src.Add(dst, arr)
	src.Release()
}
