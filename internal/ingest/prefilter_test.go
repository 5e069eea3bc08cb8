package ingest_test

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"uwpos/internal/dsp"
	"uwpos/internal/ingest"
	"uwpos/internal/sig"
)

// bandTaps designs the taps sig.BandLimitFIR uses for a band: a 255-tap
// Hamming-windowed sinc.
func bandTaps(lowHz, highHz, fs float64) []float64 {
	return dsp.FIRBandpass(255, lowHz, highHz, fs)
}

// directPrefilter is the direct-form streaming band-pass: a causal FIR
// with carried history, then the group-delay drop of the first
// (len(h)-1)/2 outputs and, at close, as many zeros. It is the oracle and
// the benchmark baseline for the pipeline's overlap-save prefilter.
type directPrefilter struct {
	h       []float64
	delay   int
	tail    []float64 // last len(h)-1 raw samples
	tailLen int
	fed     int
	buf     []float64 // tail ++ chunk
	out     []float64
}

func newDirectPrefilter(h []float64) *directPrefilter {
	return &directPrefilter{h: h, delay: (len(h) - 1) / 2, tail: make([]float64, len(h)-1)}
}

// push filters the next buffer; the result aliases scratch.
func (d *directPrefilter) push(chunk []float64) []float64 {
	n := len(chunk)
	d.buf = append(append(d.buf[:0], d.tail[:d.tailLen]...), chunk...)
	if cap(d.out) < n {
		d.out = make([]float64, n)
	}
	d.out = d.out[:n]
	for j := range n {
		base := d.tailLen + j
		var sum float64
		for k := 0; k < min(len(d.h), d.fed+j+1); k++ {
			sum += d.h[k] * d.buf[base-k]
		}
		d.out[j] = sum
	}
	d.fed += n
	keep := min(len(d.h)-1, d.fed)
	copy(d.tail, d.buf[len(d.buf)-keep:])
	d.tailLen = keep
	skip := min(max(d.delay-(d.fed-n), 0), n)
	return d.out[skip:]
}

// close returns the zero-filled tail.
func (d *directPrefilter) close() []float64 {
	return make([]float64, min(d.delay, d.fed))
}

// directBandLimit runs the whole of x through a directPrefilter. tol is
// the error allowed to the overlap-save engine per sample: 1e-9 of the
// sample's scale Σ|h[k]·x[n+d-k]|, plus 1e-12 of the largest scale,
// because a sample whose neighbourhood is all zeros is exactly 0 directly
// but still carries the rounding error of the rest of its FFT block.
func directBandLimit(h, x []float64) (want, tol []float64) {
	absH := make([]float64, len(h))
	for i, v := range h {
		absH[i] = math.Abs(v)
	}
	absX := make([]float64, len(x))
	for i, v := range x {
		absX[i] = math.Abs(v)
	}
	d, a := newDirectPrefilter(h), newDirectPrefilter(absH)
	want = append(append([]float64(nil), d.push(x)...), d.close()...)
	tol = append(append([]float64(nil), a.push(absX)...), a.close()...)
	peak := 0.0
	for _, v := range tol {
		peak = max(peak, v)
	}
	for i, v := range tol {
		tol[i] = 1e-9 * (v + 1e-3*peak)
	}
	return want, tol
}

// TestPipelinePrefilterMatchesDirect: the band-limited stream a pipeline
// delivers agrees with the direct-form oracle within directBandLimit's
// tolerance and keeps the raw stream's length — for random partitions,
// empty and one-sample buffers, and streams shorter than the filter or
// its group delay.
func TestPipelinePrefilterMatchesDirect(t *testing.T) {
	const fs = 44100.0
	fir := sig.BandLimitFIR(1000, 5000, fs)
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 100, 127, 128, 254, 255, 256, 2000, 9000} {
		stream := noiseStream(n, int64(n)+1)
		want, tol := directBandLimit(bandTaps(1000, 5000, fs), stream)
		partitions := [][]int{nil, {0, 0, n, n}}
		ones := make([]int, n)
		for i := range ones {
			ones[i] = i
		}
		partitions = append(partitions, ones)
		for trial := 0; trial < 4; trial++ {
			partitions = append(partitions, randomCuts(rng, n, 1+rng.Intn(10)))
		}
		for _, cuts := range partitions {
			pipe := ingest.New(ingest.Config{Bank: testBank(fs), Prefilter: fir})
			tap := &chunkTap{}
			pipe.Register(tap)
			feedPartition(pipe, stream, cuts)
			if len(tap.samples) != n {
				t.Fatalf("n %d cuts %v: %d filtered samples, want %d", n, cuts, len(tap.samples), n)
			}
			for i, v := range tap.samples {
				if math.Abs(v-want[i]) > tol[i] {
					t.Fatalf("n %d cuts %v: sample %d = %g, direct %g (tolerance %g)", n, cuts, i, v, want[i], tol[i])
				}
			}
		}
	}
}

// TestPipelineCloseReleasesPrefilter: a closed pipeline hands its
// prefilter scratch back to the dsp pool, so a prefiltered scan costs no
// more heap than an unfiltered one beyond the filter session itself —
// pipelines are built per scan, several per round.
func TestPipelineCloseReleasesPrefilter(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	const fs = 44100.0
	bank := testBank(fs)
	chunk := noiseStream(4096, 3)
	scan := func(fir *dsp.FIR) {
		pipe := ingest.New(ingest.Config{Bank: bank, Prefilter: fir})
		pipe.Push(chunk)
		pipe.Close()
	}
	bytesPerScan := func(fir *dsp.FIR) uint64 {
		scan(fir) // warm the pools
		// No GC while measuring: a collection empties the pools.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			scan(fir)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 20
	}
	// The pools are per-P, so a scan that migrates between Ps can miss
	// once: keep the best of five runs.
	plain, filtered := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 5 {
		plain = min(plain, bytesPerScan(nil))
		filtered = min(filtered, bytesPerScan(sig.BandLimitFIR(1000, 5000, fs)))
	}
	t.Logf("bytes per scan: unfiltered %d, prefiltered %d", plain, filtered)
	if filtered > plain+1024 {
		t.Fatalf("a prefiltered scan allocates %d bytes, an unfiltered one %d: filter scratch is not pooled", filtered, plain)
	}
}

// FuzzPrefilter fuzzes stream content, buffer cuts and the band against
// the prefiltered pipeline's invariants: the filtered samples are
// bit-identical to one-shot sig.BandLimit and within directBandLimit's
// tolerance of the direct oracle, and the correlation lags are bit-identical for any cut set.
func FuzzPrefilter(f *testing.F) {
	f.Add([]byte{0, 40, 3, 10, 200, 90, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add(append([]byte{1, 7, 5, 255, 0, 128}, make([]byte, 700)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 24 || len(data) > 1<<14 {
			t.Skip()
		}
		header, body := data[:3], data[3:]
		x := make([]float64, len(body))
		for i, b := range body {
			x[i] = (float64(b) - 128) / 128
		}
		// The preamble band and three report sub-bands: a fixed set, so
		// the band filter cache stays bounded however long the fuzzer runs.
		bands := [][2]float64{{1000, 5000}, {1100, 1900}, {2100, 2900}, {4100, 4900}}
		band := bands[int(header[0])%len(bands)]
		const fs = 44100.0
		fir := sig.BandLimitFIR(band[0], band[1], fs)
		h0 := 1 + int(header[1])%(len(x)/2)
		bank := dsp.NewMatcherBank(dsp.NewMatcher(x[:h0]))

		nc := int(header[2]) % 8
		cuts := make([]int, 0, nc)
		for k := 0; k < nc && k < len(body); k++ {
			cuts = append(cuts, int(body[k])*len(x)/256)
		}
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}

		run := func(cuts []int) ([]float64, []float64) {
			pipe := ingest.New(ingest.Config{Bank: bank, Prefilter: fir})
			col := ingest.NewCollect(0, 0)
			tap := &chunkTap{}
			pipe.Register(col)
			pipe.Register(tap)
			feedPartition(pipe, x, cuts)
			return tap.samples, col.Corr()
		}
		filtered, lags := run(cuts)
		wholeFiltered, wholeLags := run(nil)
		oneShot := sig.BandLimit(x, band[0], band[1], fs)
		want, tol := directBandLimit(bandTaps(band[0], band[1], fs), x)
		if len(filtered) != len(x) || len(oneShot) != len(x) {
			t.Fatalf("cuts %v: %d filtered, %d one-shot samples, want %d", cuts, len(filtered), len(oneShot), len(x))
		}
		for i := range filtered {
			if filtered[i] != oneShot[i] || wholeFiltered[i] != oneShot[i] {
				t.Fatalf("cuts %v sample %d: %v (whole %v) != BandLimit %v", cuts, i, filtered[i], wholeFiltered[i], oneShot[i])
			}
			if math.Abs(filtered[i]-want[i]) > tol[i] {
				t.Fatalf("cuts %v sample %d: %v, direct %v (tolerance %v)", cuts, i, filtered[i], want[i], tol[i])
			}
		}
		if len(lags) != len(wholeLags) {
			t.Fatalf("cuts %v: %d lags, whole-stream push %d", cuts, len(lags), len(wholeLags))
		}
		for j := range lags {
			if lags[j] != wholeLags[j] && !(lags[j] != lags[j] && wholeLags[j] != wholeLags[j]) {
				t.Fatalf("cuts %v lag %d: %v != %v", cuts, j, lags[j], wholeLags[j])
			}
		}
	})
}
