package ranging

import (
	"slices"
	"sync"

	"uwpos/internal/dsp"
)

// templateMatcher lazily maintains a single-template dsp.MatcherBank for
// a mutable exported template field: the baseline structs expose
// Template/Sweep publicly (and historically honoured reassignment between
// Arrival calls), so the bank is rebuilt whenever the template content
// changes and the whole check is mutex-guarded to keep concurrent Arrival
// calls safe. The content comparison is O(len) per call — noise next to
// the correlation it fronts. Running the baselines through the bank keeps
// them on the same overlap-save scan path a multi-template receiver uses,
// so callers holding a bigger bank can hand the precomputed correlation
// straight to ArrivalFromCorr.
type templateMatcher struct {
	mu   sync.Mutex
	bank *dsp.MatcherBank
}

func (tm *templateMatcher) get(template []float64) *dsp.MatcherBank {
	if len(template) == 0 {
		return nil // nothing to correlate: Arrival reports ok=false
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.bank == nil || !slices.Equal(tm.bank.Matcher(0).Template(), template) {
		tm.bank = dsp.NewMatcherBank(dsp.NewMatcher(template))
	}
	return tm.bank
}

// scanOnce correlates a single-template bank against a whole stream held
// in memory: the lags of one Feed followed by the tail lags of Flush.
func scanOnce(bank *dsp.MatcherBank, stream []float64) []float64 {
	s := bank.Stream()
	corr := append([]float64(nil), s.Feed(stream)[0]...)
	return append(corr, s.Flush()[0]...)
}

// BeepBeep is the auto-correlation chirp ranging baseline (Peng et al.,
// SenSys'07), adapted as in §3.1: a linear chirp template, window-power
// signal detection and correlation peak picking with a peak-selection rule
// that prefers the earliest peak within a fraction of the global maximum.
type BeepBeep struct {
	Template []float64
	// PeakFraction selects the earliest correlation peak whose height is
	// at least this fraction of the global max (their "specially-designed
	// peak detection"). Default 0.8.
	PeakFraction float64

	matcher templateMatcher // tracks Template
}

// NewBeepBeep builds the baseline around a chirp template.
func NewBeepBeep(template []float64) *BeepBeep {
	return &BeepBeep{Template: template, PeakFraction: 0.8}
}

// Arrival estimates the chirp arrival index in the stream, or ok=false.
func (b *BeepBeep) Arrival(stream []float64) (idx float64, ok bool) {
	bank := b.matcher.get(b.Template)
	if bank == nil {
		return 0, false
	}
	return b.ArrivalFromCorr(scanOnce(bank, stream))
}

// Bank returns the single-template matcher bank for the current Template
// (nil when the template is empty) — the scan target for callers driving
// the baseline through a shared ingest pipeline, whose per-lag output
// feeds ArrivalFromCorr.
func (b *BeepBeep) Bank() *dsp.MatcherBank { return b.matcher.get(b.Template) }

// ArrivalFromCorr applies BeepBeep's peak-selection rule to an already
// computed normalized correlation of the template against the stream —
// the entry point for callers that scanned several templates in one
// dsp.MatcherBank pass.
func (b *BeepBeep) ArrivalFromCorr(corr []float64) (idx float64, ok bool) {
	if len(corr) == 0 {
		return 0, false
	}
	_, max := dsp.Max(corr)
	if max <= 0 {
		return 0, false
	}
	frac := b.PeakFraction
	if frac == 0 {
		frac = 0.8
	}
	peaks := dsp.FindPeaks(corr, max*frac)
	if len(peaks) == 0 {
		return 0, false
	}
	return float64(peaks[0].Index), true
}

// WindowPowerDetector is the TH_SD signal-presence detector from BeepBeep
// ([75] in the paper): declare a signal when the power of a window jumps by
// at least ThresholdDB over the preceding window.
type WindowPowerDetector struct {
	WindowLen   int     // comparison window length in samples
	ThresholdDB float64 // TH_SD
}

// Detect returns indices where the power ratio between adjacent windows
// first exceeds the threshold; a simple hysteresis skips the remainder of a
// detected burst.
func (w WindowPowerDetector) Detect(stream []float64) []int {
	if w.WindowLen <= 0 || len(stream) < 2*w.WindowLen {
		return nil
	}
	var out []int
	step := w.WindowLen
	i := step
	for i+step <= len(stream) {
		db := dsp.WindowPowerDB(stream, i-step, i, step)
		if db >= w.ThresholdDB {
			out = append(out, i)
			i += 4 * step // hysteresis: skip the burst body
			continue
		}
		i += step / 2
	}
	return out
}

// CAT is the FMCW ranging baseline (Mao et al., MobiCom'16): the receiver
// mixes the incoming signal with the transmitted sweep; the beat-frequency
// peak maps linearly to delay.
type CAT struct {
	Sweep      []float64
	SampleRate float64
	BandHz     float64 // swept bandwidth B

	matcher templateMatcher // tracks Sweep
}

// NewCAT builds the baseline for a sweep covering bandHz of spectrum.
func NewCAT(sweep []float64, fs, bandHz float64) *CAT {
	return &CAT{Sweep: sweep, SampleRate: fs, BandHz: bandHz}
}

// Arrival estimates the sweep arrival index. It first coarse-aligns with
// correlation (CAT assumes rough sync from its tracking loop), then mixes
// rx·tx over the overlap and reads the residual delay off the beat
// spectrum: delay = f_beat · T / B.
func (c *CAT) Arrival(stream []float64) (idx float64, ok bool) {
	bank := c.matcher.get(c.Sweep)
	if bank == nil {
		return 0, false
	}
	return c.ArrivalFromCorr(scanOnce(bank, stream), stream)
}

// Bank returns the single-template matcher bank for the current Sweep
// (nil when the sweep is empty) — the scan target for callers driving the
// baseline through a shared ingest pipeline, whose per-lag output feeds
// ArrivalFromCorr.
func (c *CAT) Bank() *dsp.MatcherBank { return c.matcher.get(c.Sweep) }

// ArrivalFromCorr runs CAT's mix-and-beat refinement from an already
// computed normalized correlation of the sweep against the stream — the
// entry point for callers that scanned several templates in one
// dsp.MatcherBank pass.
func (c *CAT) ArrivalFromCorr(corr, stream []float64) (idx float64, ok bool) {
	if len(corr) == 0 {
		return 0, false
	}
	coarse, peak := dsp.Max(corr)
	if peak <= 0 {
		return 0, false
	}
	// Back off so the true arrival lies after the mix window start; the
	// beat spectrum then reports the residual delay r ∈ [0, backoff*2).
	const backoff = 64
	start := coarse - backoff
	if start < 0 {
		start = 0
	}
	n := len(c.Sweep)
	if start+n > len(stream) {
		n = len(stream) - start
		if n < 256 {
			return 0, false
		}
	}
	// Mix: product of rx and tx. A delay d makes the product a tone at
	// f_beat = k·d/fs (k = B/T sweep rate in Hz/s).
	prod := make([]float64, n)
	for i := 0; i < n; i++ {
		prod[i] = stream[start+i] * c.Sweep[i]
	}
	// Window to tame leakage, then a real FFT of the padded mix.
	win := dsp.MakeWindow(dsp.Hann, n)
	dsp.ApplyWindow(prod, win)
	m := dsp.NextPow2(4 * n) // zero-pad for finer beat resolution
	pad := dsp.GetF64(m)
	copy(pad, prod)
	spec := dsp.GetC128(m/2 + 1)
	dsp.RFFT(spec, pad)
	mag := dsp.AbsComplex(spec[:m/2])
	dsp.PutC128(spec)
	dsp.PutF64(pad)
	// The beat for residual delays of ±backoff samples stays below
	// k·backoff·2: restrict the search to suppress audio-band leakage.
	sweepDur := float64(len(c.Sweep)) / c.SampleRate
	k := c.BandHz / sweepDur // Hz per second of delay
	maxBeat := k * (2.5 * backoff / c.SampleRate)
	maxBin := int(maxBeat / (c.SampleRate / float64(m)))
	if maxBin < 4 {
		maxBin = 4
	}
	if maxBin > len(mag) {
		maxBin = len(mag)
	}
	bin, _ := dsp.Max(mag[:maxBin])
	if bin < 0 {
		return 0, false
	}
	// Parabolic refinement of the beat bin.
	fb := float64(bin)
	if bin > 0 && bin < len(mag)-1 {
		den := mag[bin-1] - 2*mag[bin] + mag[bin+1]
		if den != 0 {
			fb += -0.5 * (mag[bin+1] - mag[bin-1]) / den
		}
	}
	beatHz := fb * c.SampleRate / float64(m)
	delaySamples := beatHz / k * c.SampleRate
	return float64(start) + delaySamples, true
}
