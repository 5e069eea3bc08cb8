package dsp

import "fmt"

// Convolver convolves many short filters against one fixed real signal
// x. It splits x into segments, transforms each once at a power-of-two
// block size chosen from len(x) and the longest filter, and keeps the
// spectra in fold order (see foldSpec). Each AddConvolved then costs one
// forward half-length transform of the filter plus, per segment, one
// fused multiply-retangle pass and one inverse: overlap-add with the
// filter as the only per-call transform.
//
// The spectra and the transform scratch come from the package pool;
// Release hands them back. A Convolver is not safe for concurrent use.
type Convolver struct {
	n, seg, maxH int // block FFT size, x samples per segment, longest filter
	xlen         int
	specs        []*foldSpec // spectrum of each x segment
	hre, him     []float64   // filter spectrum, packed
	zre, zim     []float64   // segment product, packed
}

// NewConvolver transforms x for convolution with filters of up to
// maxFilterLen taps.
func NewConvolver(x []float64, maxFilterLen int) *Convolver {
	if maxFilterLen < 1 {
		panic(fmt.Sprintf("dsp: Convolver filter length %d must be positive", maxFilterLen))
	}
	c := &Convolver{xlen: len(x), maxH: maxFilterLen}
	if len(x) == 0 {
		return c
	}
	c.n = convolverBlock(len(x), maxFilterLen)
	c.seg = c.n - maxFilterLen + 1
	hm := c.n / 2
	c.hre, c.him = getF64Raw(hm), getF64Raw(hm)
	c.zre, c.zim = getF64Raw(hm), getF64Raw(hm)
	for p := 0; p < len(x); p += c.seg {
		rfftPacked(c.zre, c.zim, x[p:min(p+c.seg, len(x))])
		c.specs = append(c.specs, foldSpecFromPacked(c.zre, c.zim, c.n))
	}
	return c
}

// convolverBlock picks the block FFT size for an nx-sample signal and
// filters of up to nh taps: the power of two that minimizes the modelled
// cost of one AddConvolved — the filter's forward transform, then an
// inverse plus a fold-and-accumulate pass per segment. Starting from the
// one-block size, halving trades fewer butterflies per transform for
// more segments.
func convolverBlock(nx, nh int) int {
	best := max(NextPow2(nx+nh-1), 2)
	bestCost := -1.0
	for b := best; b >= 2 && b > nh; b /= 2 {
		segs := (nx + b - nh) / (b - nh + 1) // ceil(nx / (b-nh+1))
		cost := float64(1+segs)*transformCost(b) + float64(segs*b)
		if bestCost < 0 || cost < bestCost {
			best, bestCost = b, cost
		}
	}
	return best
}

// foldSpecFromPacked untangles a packed digit-reversed spectrum (zre/zim
// from rfftPacked) straight into fold order, pair by pair as
// foldSpecMulTo does, so no natural-order spectrum or padded copy of the
// signal is ever built. The pair arrays come from the scratch pool.
func foldSpecFromPacked(zre, zim []float64, n int) *foldSpec {
	ft := foldTableFor(n)
	fs := &foldSpec{s0: zre[0] + zim[0], sh: zre[0] - zim[0]}
	if m := ft.mid; m >= 0 {
		fs.smr, fs.smi = zre[m], -zim[m]
	}
	np := len(ft.ia)
	fs.are, fs.aim = getF64Raw(np), getF64Raw(np)
	fs.bre, fs.bim = getF64Raw(np), getF64Raw(np)
	for p, i := range ft.ia {
		j := ft.ib[p]
		er, ei := (zre[i]+zre[j])*0.5, (zim[i]-zim[j])*0.5
		or, oi := (zim[i]+zim[j])*0.5, (zre[j]-zre[i])*0.5
		tr := ft.wre[p]*or - ft.wim[p]*oi
		ti := ft.wre[p]*oi + ft.wim[p]*or
		fs.are[p], fs.aim[p] = er+tr, ei+ti
		fs.bre[p], fs.bim[p] = er-tr, ti-ei
	}
	return fs
}

// release returns foldSpecFromPacked's pool-drawn pair arrays.
func (fs *foldSpec) release() {
	PutF64(fs.bim)
	PutF64(fs.bre)
	PutF64(fs.aim)
	PutF64(fs.are)
}

// MaxFilterLen is the longest filter AddConvolved accepts.
func (c *Convolver) MaxFilterLen() int { return c.maxH }

// AddConvolved adds the full linear convolution h ⊛ x into dst, output
// sample k landing on dst[at+k]; samples that fall outside dst are
// dropped, and at may be negative. len(h) must not exceed MaxFilterLen.
// It allocates nothing.
func (c *Convolver) AddConvolved(dst []float64, at int, h []float64) {
	if len(h) > c.maxH {
		panic(fmt.Sprintf("dsp: %d-tap filter exceeds the Convolver's %d-tap limit", len(h), c.maxH))
	}
	if len(h) == 0 || c.xlen == 0 || at >= len(dst) || at+len(h)+c.xlen-1 <= 0 {
		return
	}
	rfftPacked(c.hre, c.him, h)
	// The inverse leaves output sample k at zre[k/2] (even k) or zim[k/2]
	// (odd k), still missing the 1/(n/2) scale.
	s := 1 / float64(c.n/2)
	for i, spec := range c.specs {
		off := at + i*c.seg
		segLen := min(c.seg, c.xlen-i*c.seg)
		lo, hi := max(0, -off), min(len(h)+segLen-1, len(dst)-off)
		if lo >= hi {
			continue
		}
		zre, zim := c.zre, c.zim
		foldSpecMulTo(zre, zim, c.hre, c.him, spec, c.n)
		fftSoA(zre, zim, true)
		k := lo
		if k&1 == 1 {
			dst[off+k] += zim[k>>1] * s
			k++
		}
		for ; k+1 < hi; k += 2 {
			dst[off+k] += zre[k>>1] * s
			dst[off+k+1] += zim[k>>1] * s
		}
		if k < hi {
			dst[off+k] += zre[k>>1] * s
		}
	}
}

// Release returns the spectra and scratch to the pool. The Convolver
// must not be used afterwards.
func (c *Convolver) Release() {
	for _, spec := range c.specs {
		spec.release()
	}
	PutF64(c.zim) // PutF64 ignores the nil buffers of an empty x
	PutF64(c.zre)
	PutF64(c.him)
	PutF64(c.hre)
	c.specs, c.hre, c.him, c.zre, c.zim, c.n = nil, nil, nil, nil, nil, 0
}
