package dsp

import (
	"math"
	"sync"
)

// Matcher is a precomputed matched filter for one correlation template:
// a private copy of the template, its energy (pre-folded into the
// normalization) and its conjugated spectrum, transformed once per FFT
// block length and cached. Matchers do not scan on their own; a
// MatcherBank groups them and its BankStream sessions run the scan, so
// each block of stream costs one shared forward transform plus, per
// template, one fused multiply-retangle pass and one inverse.
//
// Cached spectra live in fold order (see foldSpec): rearranged to line
// up with the fold table's conjugate-pair walk, so the per-block
// frequency-domain work is one flat pass of float64 loops in the
// kernel's permuted domain with no complex128 materialization and no
// natural-order spectrum ever built.
//
// Build one Matcher per template and share it freely: the spectrum cache
// is guarded by a read-write mutex, cached spectra are immutable after
// publication, and the FFT kernel itself only reads shared tables, so
// concurrent sessions from engine workers are safe.
type Matcher struct {
	h      []float64 // private copy of the template
	energy float64   // Σ h² — pre-folded normalization energy

	mu    sync.RWMutex
	specs map[int]*foldSpec // padded length m -> conj(RFFT(h, m)) in fold order
}

// NewMatcher builds a matcher around a copy of template.
func NewMatcher(template []float64) *Matcher {
	h := append([]float64(nil), template...)
	var e float64
	for _, v := range h {
		e += v * v
	}
	return &Matcher{h: h, energy: e, specs: make(map[int]*foldSpec)}
}

// Template returns the matcher's internal template copy. Treat it as
// read-only; it is shared with every spectrum the matcher has cached.
func (mt *Matcher) Template() []float64 { return mt.h }

// TemplateLen returns the template length in samples.
func (mt *Matcher) TemplateLen() int { return len(mt.h) }

// spectrum returns the conjugated template spectrum at padded FFT length
// m (a power of two >= len(h)) in fold order, computing and caching it on
// first use.
func (mt *Matcher) spectrum(m int) *foldSpec {
	mt.mu.RLock()
	s := mt.specs[m]
	mt.mu.RUnlock()
	if s != nil {
		return s
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if s := mt.specs[m]; s != nil {
		return s
	}
	pad := GetF64(m)
	copy(pad, mt.h)
	sre := GetF64(m/2 + 1)
	sim := GetF64(m/2 + 1)
	rfftInto(sre, sim, pad)
	PutF64(pad)
	for i, v := range sim {
		sim[i] = -v // conj(H)
	}
	s = newFoldSpec(sre, sim, m)
	PutF64(sim)
	PutF64(sre)
	mt.specs[m] = s
	return s
}

// neumaierAdd folds y into the compensated running sum (sum, comp):
// Kahan–Babuška–Neumaier summation, which keeps the low-order bits a
// plain running sum sheds — over a 10^7-sample stream the plain sum's
// window energies drift by orders of magnitude more than one ulp.
func neumaierAdd(sum, comp, y float64) (float64, float64) {
	t := sum + y
	if sum >= y {
		comp += (sum - t) + y
	} else {
		comp += (y - t) + sum
	}
	return t, comp
}

// prefixSums continues a Neumaier-compensated running energy sum
// (sum, comp) over x, writing dst[i] = Σ x[j]² through x[i], and returns
// the new running state. Entries stay accurate to a final rounding at any
// stream length — the long-stream drift of a plain running sum would
// otherwise leak into every window energy difference downstream.
func prefixSums(dst, x []float64, sum, comp float64) (float64, float64) {
	for i, v := range x {
		sum, comp = neumaierAdd(sum, comp, v*v)
		dst[i] = sum + comp
	}
	return sum, comp
}

// normalizeWithPrefix divides each correlation lag by
// sqrt(E_window · eh), the window energy of the stream times the
// template energy, reading window energies off an energy prefix-sum
// array: prefix[k] must hold the cumulative Σ x² up to (but not
// including) the stream sample aligned with correlation lag r[0]+k.
// BankStream normalizes every template's block slice against its one
// rolling prefix window. Windows of (near-)zero energy yield 0.
func normalizeWithPrefix(r, prefix []float64, hlen int, eh float64) {
	if eh == 0 {
		for i := range r {
			r[i] = 0
		}
		return
	}
	const eps = 1e-30
	lo := prefix[:len(r)]
	hi := prefix[hlen:][:len(r)]
	for k := range r {
		ex := hi[k] - lo[k]
		den := math.Sqrt(ex * eh)
		if den < eps {
			r[k] = 0
		} else {
			r[k] /= den
		}
	}
}
