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

// AddConvolved adds the full linear convolution h ⊛ x into dst, output
// sample k landing on dst[at+k]; samples that fall outside dst are
// dropped, and at may be negative. len(h) must not exceed the maxH the
// convolver was built with. It allocates nothing.
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

// FIR is a linear-phase FIR filter prepared for streaming overlap-save
// filtering: the spectrum of its taps at the block size firBlock picks.
// It is read-only once built, so one FIR may be shared by any number of
// concurrent streams.
type FIR struct {
	ntaps int
	delay int       // group delay, (ntaps-1)/2 samples
	n     int       // block FFT size
	spec  *foldSpec // spectrum of the taps zero-padded to n
}

// NewFIR transforms taps (at least one) once, at the block size firBlock
// picks for their length. taps is not retained.
func NewFIR(taps []float64) *FIR {
	if len(taps) == 0 {
		panic("dsp: FIR needs at least one tap")
	}
	n := firBlock(len(taps))
	f := &FIR{ntaps: len(taps), delay: (len(taps) - 1) / 2, n: n}
	zre, zim := getF64Raw(n/2), getF64Raw(n/2)
	rfftPacked(zre, zim, taps)
	f.spec = foldSpecFromPacked(zre, zim, n)
	PutF64(zim)
	PutF64(zre)
	return f
}

// firBlock picks the overlap-save block size for an nh-tap filter with
// convolverBlock's butterfly-count model: the power of two that
// minimizes the cost of one block — a forward and an inverse transform
// plus a fold pass — per output sample it yields (b-nh+1 of them).
func firBlock(nh int) int {
	best, bestCost := 0, 0.0
	smallest := max(NextPow2(nh), 2)
	for b := smallest; b <= smallest<<6; b *= 2 {
		cost := (2*transformCost(b) + float64(b)) / float64(b-nh+1)
		if best == 0 || cost < bestCost {
			best, bestCost = b, cost
		}
	}
	return best
}

// Stream opens a filtering session over one stream. Its scratch comes
// from the package pool; Release hands it back.
func (f *FIR) Stream() *FIRStream {
	return &FIRStream{
		f:   f,
		in:  GetF64(f.n),
		zre: getF64Raw(f.n / 2),
		zim: getF64Raw(f.n / 2),
	}
}

// FIRStream filters one stream, fed in buffers of any length, with its
// FIR's group delay removed: output sample n is the causal output
// y[n+d] = Σ h[k]·x[n+d-k], d = (len(h)-1)/2, and the last d outputs —
// whose causal values need input past the end — are zero. The output is
// exactly as long as the input.
//
// Each block transforms len(h)-1 samples of history plus a hop of new
// samples and keeps the hop of wrap-free outputs (overlap-save). Blocks
// sit on a fixed absolute grid of the raw stream, so the output is
// bit-for-bit identical for every partition of the same stream into Feed
// calls. A session is single-stream and not safe for concurrent use.
type FIRStream struct {
	f        *FIR
	in       []float64 // block input: len(h)-1 history samples, then the hop
	have     int       // hop samples buffered in in
	start    int       // causal output index of the current block's first output
	fed      int       // raw samples consumed
	emitted  int       // output samples returned
	out      []float64 // emission buffer, reused across calls
	zre, zim []float64 // block spectrum / inverse scratch
	flushed  bool
}

// Fed returns the number of raw samples consumed so far.
func (s *FIRStream) Fed() int { return s.fed }

// Feed consumes the next buffer and returns the output samples that
// became computable: whole hops only, so output trails input by up to
// one hop plus the group delay. The result aliases session scratch,
// valid until the next Feed, Flush or Release.
func (s *FIRStream) Feed(x []float64) []float64 {
	if s.flushed {
		panic("dsp: FIRStream.Feed after Flush")
	}
	l := s.f.ntaps - 1
	hop := s.f.n - l
	s.fed += len(x)
	s.reserve((s.have + len(x)) / hop * hop)
	for len(x) > 0 {
		k := copy(s.in[l+s.have:], x)
		s.have += k
		x = x[k:]
		if s.have == hop {
			s.runBlock(hop)
		}
	}
	return s.out
}

// Flush ends the stream and returns the remaining output: the partial
// last block, computed with the input zero-padded past the end, then the
// d zero-filled samples. The result aliases session scratch, valid until
// Release.
func (s *FIRStream) Flush() []float64 {
	if s.flushed {
		panic("dsp: FIRStream.Flush after Flush")
	}
	s.flushed = true
	s.reserve(s.fed - s.emitted)
	if s.have > 0 {
		s.runBlock(s.have)
	}
	z := len(s.out)
	s.out = s.out[:z+s.fed-s.emitted]
	clear(s.out[z:])
	s.emitted = s.fed
	return s.out
}

// Release returns the session's scratch, including the last returned
// output, to the pool. It is idempotent; the session must not be used
// afterwards.
func (s *FIRStream) Release() {
	PutF64(s.out) // PutF64 ignores the nil buffers of a released session
	PutF64(s.zim)
	PutF64(s.zre)
	PutF64(s.in)
	s.out, s.zre, s.zim, s.in = nil, nil, nil, nil
	s.flushed = true
}

// reserve empties the emission buffer with room for n samples.
func (s *FIRStream) reserve(n int) {
	if cap(s.out) < n {
		PutF64(s.out)
		s.out = getF64Raw(n)
	}
	s.out = s.out[:0]
}

// runBlock filters the current block — the buffered samples, zero-padded
// to the hop — and appends the outputs for causal indices
// [start, start+take) that lie past the group delay, then slides the
// block one hop along the grid, keeping its last len(h)-1 samples as the
// next block's history. A block wholly inside the group delay costs no
// transform.
func (s *FIRStream) runBlock(take int) {
	n, l := s.f.n, s.f.ntaps-1
	if lo := max(0, s.f.delay-s.start); lo < take {
		clear(s.in[l+s.have:])
		rfftPacked(s.zre, s.zim, s.in)
		foldSpecMulTo(s.zre, s.zim, s.zre, s.zim, s.f.spec, n)
		fftSoA(s.zre, s.zim, true)
		// The inverse leaves block position k at zre[k/2] (even k) or
		// zim[k/2] (odd k), still missing the 1/(n/2) scale; causal
		// output start+i sits at position l+i.
		sc := 1 / float64(n/2)
		m := len(s.out)
		out := s.out[m : m+take-lo]
		j, k := 0, l+lo
		if k&1 == 1 {
			out[0] = s.zim[k>>1] * sc
			j, k = 1, k+1
		}
		for ; j+1 < len(out); j, k = j+2, k+2 {
			out[j] = s.zre[k>>1] * sc
			out[j+1] = s.zim[k>>1] * sc
		}
		if j < len(out) {
			out[j] = s.zre[k>>1] * sc
		}
		s.out = s.out[:m+len(out)]
		s.emitted += len(out)
	}
	copy(s.in, s.in[n-l:])
	s.start += n - l
	s.have = 0
}
