package dsp

import "sync/atomic"

// MatcherBank groups several Matchers so one stream can be scanned for
// every template at far less than per-template cost. All templates share
// one overlap-save block grid sized for the longest template; each block
// of the stream is forward-transformed exactly once, and every template
// then pays only its pointwise multiply and inverse transform. With N
// templates that is 1+N half-transforms per block instead of 2N — the
// receiver scans the same audio for the ranging preamble, the calibration
// chirp and the baseline sweeps for roughly half the transform work.
//
// The bank's only scan is a BankStream session (Stream): a whole stream
// held in memory is one Feed followed by Flush. A bank is immutable after
// construction and safe for concurrent use: sessions only read the member
// matchers' cached spectra (each guarded inside Matcher), and every
// session owns its state exclusively.
type MatcherBank struct {
	ms     []*Matcher
	maxLen int // longest template, samples
	block  int // shared overlap-save FFT block length
	hop    int // valid lags per block: block - maxLen + 1
}

// osBlockFactor sizes the throughput-oriented overlap-save FFT block
// relative to the longest template: NextPow2(osBlockFactor·maxLen) keeps
// >= ~87% of each block as valid output.
const osBlockFactor = 8

// streamBlockFactor sizes the latency-oriented block. 2 halves the
// per-block valid fraction against osBlockFactor's 8 (≈53% instead of
// ≈87%, a ~1.6× transform-work premium) but cuts the emission latency
// four-fold — the right trade for a live receiver that wants detections
// while the diver is still mid-gesture.
const streamBlockFactor = 2

// NewMatcherBank builds a bank over the given matchers with the
// throughput-oriented block size (osBlockFactor × the longest template).
// It panics on an empty bank or an empty template — a bank exists to scan
// templates, and a zero-length template has no correlation defined.
func NewMatcherBank(ms ...*Matcher) *MatcherBank {
	return newMatcherBank(osBlockFactor, ms)
}

// NewMatcherBankLowLatency builds a bank with the latency-oriented block
// size (streamBlockFactor × the longest template): lags emerge after
// roughly one template length of input instead of seven, at ~1.5× the
// per-sample transform cost. This is the bank shape for live ingest
// pipelines, where emission latency bounds the end-to-end detection
// delay.
func NewMatcherBankLowLatency(ms ...*Matcher) *MatcherBank {
	return newMatcherBank(streamBlockFactor, ms)
}

// bankForwardCount counts shared forward block transforms across every
// BankStream session in the process — the observable for "exactly one
// forward transform per block feeds every consumer" assertions (see
// BankForwardTransforms).
var bankForwardCount atomic.Uint64

// BankForwardTransforms returns the process-wide number of shared
// forward block transforms executed by BankStream sessions since process
// start. Deltas around a scan measure how many forward FFTs the scan
// actually paid for; a shared-scan pipeline over N templates and C
// consumers advances it exactly once per block, independent of N and C.
func BankForwardTransforms() uint64 { return bankForwardCount.Load() }

func newMatcherBank(blockFactor int, ms []*Matcher) *MatcherBank {
	if len(ms) == 0 {
		panic("dsp: NewMatcherBank needs at least one matcher")
	}
	maxLen := 0
	for _, mt := range ms {
		if mt.TemplateLen() == 0 {
			panic("dsp: MatcherBank template is empty")
		}
		if l := mt.TemplateLen(); l > maxLen {
			maxLen = l
		}
	}
	block := NextPow2(blockFactor * maxLen)
	return &MatcherBank{
		ms:     append([]*Matcher(nil), ms...),
		maxLen: maxLen,
		block:  block,
		hop:    block - maxLen + 1,
	}
}

// Len returns the number of templates in the bank.
func (b *MatcherBank) Len() int { return len(b.ms) }

// Matcher returns the i-th member matcher.
func (b *MatcherBank) Matcher(i int) *Matcher { return b.ms[i] }

// Stream opens an incremental scanning session over the bank: feed the
// stream chunk by chunk and collect each template's normalized
// correlation lags as they become computable.
func (b *MatcherBank) Stream() *BankStream {
	return &BankStream{
		bank: b,
		buf:  GetF64(b.block),
		pre:  GetF64(b.block + 1),
		work: getF64Raw(b.block),
		fxre: getF64Raw(b.block / 2),
		fxim: getF64Raw(b.block / 2),
		zre:  getF64Raw(b.block / 2),
		zim:  getF64Raw(b.block / 2),
		emit: make([][]float64, len(b.ms)),
	}
}

// BankStream is an in-progress overlap-save scan of one stream against
// every template of a MatcherBank. Chunks of any length go in via Feed;
// newly computable correlation lags come out per template. Lag k of
// template h is the valid-lag cross-correlation
//
//	r[k] = Σ_n x[n+k]·h[n] / sqrt(Σ_n h[n]² · Σ_n x[n+k]²),  k in [0, len(x)-len(h)]
//
// so values lie in [-1, 1] whatever the signal scale; a window or
// template of (near-)zero energy yields 0. Because blocks sit on a fixed
// absolute grid (multiples of the bank hop from stream start), the
// emitted lags are bit-for-bit identical for every chunk partition of the
// same stream, including the whole stream in one Feed.
//
// State is O(block length) however large the chunks: Feed fills one
// block at a time, so the session carries only the inter-block overlap,
// a rolling energy-prefix window and per-template emission buffers. A
// session is single-stream and not safe for concurrent use; open one
// session per goroutine (sessions of one bank share the cached template
// spectra read-only, so concurrent sessions are safe).
type BankStream struct {
	bank *MatcherBank

	// buf (block samples) holds the stream from the current block start,
	// a multiple of hop; pre (block+1 entries) holds the energy prefix
	// sums aligned with it: pre[i] = Σ x[j]² for j < start+i, accumulated
	// with Neumaier compensation (preSum/preComp carry the running state
	// across chunks) so arbitrarily long sessions don't drift.
	buf             []float64
	pre             []float64
	preSum, preComp float64
	bufLen          int
	start           int // absolute stream index of buf[0]
	fed             int // total samples consumed

	emit [][]float64 // per-template emission buffers, reused across calls

	work       []float64 // per-template lag staging before emit append
	fxre, fxim []float64 // shared block spectrum, packed permuted order
	zre, zim   []float64 // per-template fold output / inverse scratch

	flushed bool
}

// Fed returns the number of stream samples consumed so far.
func (s *BankStream) Fed() int { return s.fed }

// Feed consumes one chunk and returns, per template, the correlation lags
// that became computable. Rows alias session-owned buffers: they are
// valid until the next Feed or Flush call and must be copied to persist.
// All rows have equal length during feeding (whole blocks only); the
// ragged per-template tails arrive at Flush.
func (s *BankStream) Feed(chunk []float64) [][]float64 {
	if s.flushed {
		panic("dsp: BankStream.Feed after Flush")
	}
	for i := range s.emit {
		s.emit[i] = s.emit[i][:0]
	}
	s.fed += len(chunk)
	hop := s.bank.hop
	for len(chunk) > 0 {
		k := copy(s.buf[s.bufLen:], chunk)
		s.preSum, s.preComp = prefixSums(s.pre[s.bufLen+1:], chunk[:k], s.preSum, s.preComp)
		s.bufLen += k
		chunk = chunk[k:]
		if s.bufLen == s.bank.block {
			s.runBlock(func(int) int { return hop })
			s.advance(hop)
		}
	}
	return s.emit
}

// Flush marks end of stream, computes every remaining lag from the
// zero-padded tail blocks and returns them per template (rows may have
// different lengths; a template longer than the whole stream yields an
// empty row). The session's scratch returns to the pool; only the
// returned rows stay valid, until the session is garbage collected.
func (s *BankStream) Flush() [][]float64 {
	if s.flushed {
		panic("dsp: BankStream.Flush after Flush")
	}
	s.flushed = true
	for i := range s.emit {
		s.emit[i] = s.emit[i][:0]
	}
	for {
		more := false
		for _, mt := range s.bank.ms {
			if s.fed-mt.TemplateLen()+1 > s.start {
				more = true
			}
		}
		if !more {
			break
		}
		s.runBlock(func(i int) int {
			return min(s.fed-s.bank.ms[i].TemplateLen()+1-s.start, s.bank.hop)
		})
		s.advance(min(s.bank.hop, s.bufLen))
	}
	PutF64(s.buf)
	PutF64(s.pre)
	PutF64(s.work)
	PutF64(s.fxre)
	PutF64(s.fxim)
	PutF64(s.zre)
	PutF64(s.zim)
	s.buf, s.pre, s.work = nil, nil, nil
	s.fxre, s.fxim, s.zre, s.zim = nil, nil, nil, nil
	return s.emit
}

// advance slides the block one hop along the grid, dropping the first n
// buffered samples (n < hop only for the short tail blocks of Flush).
func (s *BankStream) advance(n int) {
	copy(s.buf, s.buf[n:s.bufLen])
	copy(s.pre, s.pre[n:s.bufLen+1])
	s.bufLen -= n
	s.start += s.bank.hop
}

// runBlock transforms the current block (buffered samples zero-padded to
// the block length) once and appends take(i) normalized lags to each
// template's emission buffer. take(i) ≤ hop; non-positive takes skip the
// template's inverse transform entirely.
func (s *BankStream) runBlock(take func(i int) int) {
	hm := s.bank.block / 2
	rfftPacked(s.fxre, s.fxim, s.buf[:s.bufLen])
	bankForwardCount.Add(1)
	for i, mt := range s.bank.ms {
		t := take(i)
		if t <= 0 {
			continue
		}
		foldSpecMulTo(s.zre, s.zim, s.fxre, s.fxim, mt.spectrum(s.bank.block), s.bank.block)
		fftSoA(s.zre, s.zim, true)
		interleaveScaled(s.work[:t], s.zre, s.zim, hm)
		normalizeWithPrefix(s.work[:t], s.pre, mt.TemplateLen(), mt.energy)
		s.emit[i] = append(s.emit[i], s.work[:t]...)
	}
}
