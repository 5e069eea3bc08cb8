package dsp

import "math"

// FractionalDelayInto writes into h a len(h)-tap Hann-windowed-sinc
// kernel that delays a signal by frac of a sample (0 ≤ frac < 1) on top of
// the kernel's inherent (len(h)-1)/2 samples. The whole-sample part of a
// delay is a shift the caller applies separately. The kernel's DC gain is
// normalized to 1, and it is written in place so callers that build many
// kernels do not allocate.
func FractionalDelayInto(h []float64, frac float64) {
	numTaps := len(h)
	center := float64(numTaps-1)/2 + frac
	var sum float64
	for i := range h {
		t := float64(i) - center
		// Hann-windowed sinc.
		w := 0.5 + 0.5*math.Cos(math.Pi*t/(float64(numTaps)/2))
		if w < 0 {
			w = 0
		}
		h[i] = Sinc(t) * w
		sum += h[i]
	}
	// Normalize DC gain to 1 so amplitude is preserved.
	if sum != 0 {
		for i := range h {
			h[i] /= sum
		}
	}
}
