package ranging

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"uwpos/internal/sig"
)

// feedDetector drives a session over a chunk partition of the stream
// given as sorted cut points, and returns the flushed detection set.
func feedDetector(sd *StreamDetector, stream []float64, cuts []int) []Detection {
	prev := 0
	for _, c := range cuts {
		sd.Feed(stream[prev:c])
		prev = c
	}
	sd.Feed(stream[prev:])
	return sd.Flush()
}

// sameDetections enforces the equivalence contract: identical indices,
// scores within 1e-9 (in practice the streaming pipeline is bit-exact).
func sameDetections(t *testing.T, ctx string, got, want []Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d detections, want %d (got %+v, want %+v)", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].CoarseIndex != want[i].CoarseIndex {
			t.Fatalf("%s: detection %d at index %d, want %d", ctx, i, got[i].CoarseIndex, want[i].CoarseIndex)
		}
		if math.Abs(got[i].CorrPeak-want[i].CorrPeak) > 1e-9 {
			t.Fatalf("%s: detection %d corr %g, want %g", ctx, i, got[i].CorrPeak, want[i].CorrPeak)
		}
		if math.Abs(got[i].AutoCorr-want[i].AutoCorr) > 1e-9 {
			t.Fatalf("%s: detection %d score %g, want %g", ctx, i, got[i].AutoCorr, want[i].AutoCorr)
		}
	}
}

// TestStreamDetectorEquivalence is the detection half of the streaming
// equivalence harness: over randomized chunk partitions — including
// boundaries inside the preamble and single-sample chunks near the peak —
// the streaming session must produce exactly the one-shot Detect set.
func TestStreamDetectorEquivalence(t *testing.T) {
	p := testParams()
	d := NewDetector(p, DetectorConfig{})
	r := rand.New(rand.NewSource(60))
	for _, tc := range []struct {
		name  string
		at    []int
		amps  []float64
		total int
	}{
		{"single clean", []int{20000}, []float64{1.0}, 60000},
		{"two preambles", []int{12000, 34000}, []float64{0.9, 0.7}, 60000},
		{"noise only", nil, nil, 40000},
		{"near stream end", []int{49000}, []float64{1.0}, 60000},
	} {
		stream := make([]float64, tc.total)
		for i := range stream {
			stream[i] = 0.05 * r.NormFloat64()
		}
		pre := sig.SharedPreamble(p)
		for k, at := range tc.at {
			for i, v := range pre {
				stream[at+i] += tc.amps[k] * v
			}
		}
		want := d.Detect(stream)
		if len(tc.at) > 0 && len(want) == 0 {
			t.Fatalf("%s: one-shot reference missed the preamble", tc.name)
		}
		// Adversarial fixed partitions: boundary inside the preamble, on
		// the coarse peak itself, and tiny chunks around it.
		var fixed [][]int
		if len(tc.at) > 0 {
			at := tc.at[0]
			fixed = append(fixed,
				[]int{at + len(pre)/2},
				[]int{at},
				[]int{at - 1, at, at + 1, at + 2},
				[]int{at + len(pre)},
			)
		}
		for trial := 0; trial < 6; trial++ {
			k := r.Intn(6)
			cuts := make([]int, k)
			for i := range cuts {
				cuts[i] = r.Intn(tc.total + 1)
			}
			slices.Sort(cuts)
			fixed = append(fixed, cuts)
		}
		for _, cuts := range fixed {
			got := feedDetector(d.Stream(), stream, cuts)
			sameDetections(t, tc.name, got, want)
		}
	}
}

// TestStreamDetectorNoPrefilterEquivalence covers the DisablePrefilter
// configuration (raw-stream correlation) through the same harness.
func TestStreamDetectorNoPrefilterEquivalence(t *testing.T) {
	p := testParams()
	d := NewDetector(p, DetectorConfig{DisablePrefilter: true})
	stream := makeStream(t, p, 18000, 50000, 1.0, 0.02, 61)
	want := d.Detect(stream)
	for _, cuts := range [][]int{nil, {18000 + 4920}, {1, 2, 3, 49999}, {25000}} {
		sameDetections(t, "no-prefilter", feedDetector(d.Stream(), stream, cuts), want)
	}
}

// TestStreamDetectorBoundaryPeakNotDuplicated is the cross-chunk
// MinSeparation regression test: a detection whose correlation peak sits
// exactly on a chunk boundary must be reported once, at the same index as
// one-shot detection.
func TestStreamDetectorBoundaryPeakNotDuplicated(t *testing.T) {
	p := testParams()
	d := NewDetector(p, DetectorConfig{})
	const at = 24000
	stream := makeStream(t, p, at, 60000, 1.0, 0.03, 62)
	want := d.Detect(stream)
	if len(want) != 1 {
		t.Fatalf("reference found %d detections, want 1", len(want))
	}
	peak := want[0].CoarseIndex
	for _, cuts := range [][]int{{peak}, {peak + 1}, {peak - 1, peak, peak + 1}} {
		got := feedDetector(d.Stream(), stream, cuts)
		sameDetections(t, "boundary peak", got, want)
	}
}

// TestStreamDetectorReplacesProvisional: a higher peak arriving in a
// later chunk, within MinSeparation of an already-reported provisional
// detection, must replace it — and the final set must equal one-shot.
func TestStreamDetectorReplacesProvisional(t *testing.T) {
	p := testParams()
	// Separation below MinSeparation so the two detections are exclusive.
	cfg := DetectorConfig{MinSeparation: 15000}
	d := NewDetector(p, cfg)
	const atWeak, atStrong = 16000, 26000
	stream := makeStream(t, p, atWeak, 60000, 0.5, 0.02, 63)
	pre := sig.SharedPreamble(p)
	for i, v := range pre {
		stream[atStrong+i] += 1.0 * v
	}
	want := d.Detect(stream)
	if len(want) != 1 || abs(want[0].CoarseIndex-atStrong) > 3 {
		t.Fatalf("reference should keep only the strong preamble, got %+v", want)
	}

	sd := d.Stream()
	// Feed through the first correlation block (factor-2 grid: 32768
	// filtered samples) — enough to emit the weak peak's lag but not the
	// strong one's: the weak detection must be visible provisionally.
	sd.Feed(stream[:36000])
	prov := sd.Detections()
	if len(prov) != 1 || abs(prov[0].CoarseIndex-atWeak) > 3 {
		t.Fatalf("provisional set before the strong arrival: %+v, want the weak detection near %d", prov, atWeak)
	}
	// The rest of the stream carries the stronger peak (its lag sits past
	// the first block hop, so it could not have been emitted yet): it
	// replaces the provisional weak one rather than being dropped as its
	// duplicate.
	sd.Feed(stream[36000:])
	sameDetections(t, "after replacement", sd.Detections(), want)
	sameDetections(t, "final", sd.Flush(), want)
	// Flush is idempotent and Detections keeps returning the final set.
	sameDetections(t, "post-flush", sd.Detections(), want)
}

// TestStreamDetectorSettled covers the finality contract callers build
// on Settled: Decided and Settled never decrease, Settled never passes
// Decided, and below Settled the current set already equals the final
// one. A weak preamble is displaced by a stronger one within
// MinSeparation after its lag is decided, so being decided alone is not
// final; Settled holds it back until the displacer is known.
func TestStreamDetectorSettled(t *testing.T) {
	p := testParams()
	cfg := DetectorConfig{MinSeparation: 15000}
	d := NewDetector(p, cfg)
	const atWeak, atStrong = 16000, 26000
	stream := makeStream(t, p, atWeak, 80000, 0.5, 0.02, 64)
	for i, v := range sig.SharedPreamble(p) {
		stream[atStrong+i] += v
	}
	want := d.Detect(stream)
	below := func(dets []Detection, idx int) []Detection {
		return slices.DeleteFunc(slices.Clone(dets), func(det Detection) bool { return det.CoarseIndex >= idx })
	}
	sd := d.Stream()
	prevDec, prevSet, displaced, early := 0, 0, false, false
	for off := 0; off < len(stream); off += 2048 {
		sd.Feed(stream[off:min(off+2048, len(stream))])
		dec, set := sd.Decided(), sd.Settled()
		if dec < prevDec || dec > sd.Fed() || set < prevSet || set > dec {
			t.Fatalf("after %d samples: Decided %d (was %d), Settled %d (was %d)", sd.Fed(), dec, prevDec, set, prevSet)
		}
		prevDec, prevSet = dec, set
		cur := sd.Detections()
		sameDetections(t, fmt.Sprintf("settled prefix after %d samples", sd.Fed()), below(cur, set), below(want, set))
		for _, det := range cur {
			if det.CoarseIndex < dec && !slices.Contains(want, det) {
				displaced = true
			}
		}
		early = early || len(below(cur, set)) == len(want)
	}
	if !displaced {
		t.Error("the weak preamble was never a decided-but-provisional detection")
	}
	if !early {
		t.Error("the final set never settled before Flush")
	}
	sameDetections(t, "final", sd.Flush(), want)
	if got, lags := sd.Decided(), len(stream)-p.PreambleLen()+1; got != lags {
		t.Errorf("Decided after Flush = %d, want all %d lags", got, lags)
	}
	if sd.Settled() != sd.Decided() {
		t.Errorf("Settled after Flush = %d, want Decided = %d", sd.Settled(), sd.Decided())
	}
}

// TestStreamDetectorCandidateCapIsCausal feeds more gated peaks than
// MaxCandidates, with a weak preamble ahead of many strong ones. Whether
// a candidate is validated depends only on the peaks found before it, so
// the weak preamble, settled before the strong ones arrive, stays in the
// final set even though more than MaxCandidates stronger peaks follow it.
func TestStreamDetectorCandidateCapIsCausal(t *testing.T) {
	p := testParams()
	cfg := DetectorConfig{MaxCandidates: 4}
	d := NewDetector(p, cfg)
	sep := 2 * p.PreambleLen()
	const strong = 6
	stream := makeStream(t, p, sep, (strong+3)*sep, 0.03, 0.02, 65)
	for k := 2; k < strong+2; k++ {
		for i, v := range sig.SharedPreamble(p) {
			stream[k*sep+i] += v
		}
	}
	want := d.Detect(stream)
	sd := d.Stream()
	var weak Detection
	for off := 0; off < len(stream); off += 2048 {
		sd.Feed(stream[off:min(off+2048, len(stream))])
		if cur := sd.Detections(); weak.CoarseIndex == 0 && len(cur) > 0 && cur[0].CoarseIndex < sd.Settled() {
			weak = cur[0]
			if weak.CoarseIndex >= 2*sep {
				t.Fatalf("first settled detection at %d, want the weak preamble near %d", weak.CoarseIndex, sep)
			}
		}
	}
	stronger := 0
	for _, c := range sd.cands {
		if c.corr > weak.CorrPeak {
			stronger++
		}
	}
	if stronger < cfg.MaxCandidates {
		t.Fatalf("%d candidates stronger than the weak preamble, want at least MaxCandidates = %d", stronger, cfg.MaxCandidates)
	}
	got := sd.Flush()
	sameDetections(t, "streamed vs one-shot", got, want)
	if len(got) != strong+1 || got[0] != weak {
		t.Errorf("final set %+v, want the settled weak preamble %+v and %d strong ones", got, weak, strong)
	}
}

// TestStreamDetectorFedAndPanic covers the bookkeeping contract.
func TestStreamDetectorFedAndPanic(t *testing.T) {
	p := testParams()
	sd := NewStreamDetector(p, DetectorConfig{})
	sd.Feed(make([]float64, 1000))
	sd.Feed(nil)
	if sd.Fed() != 1000 {
		t.Fatalf("Fed() = %d, want 1000", sd.Fed())
	}
	sd.Flush()
	defer func() {
		if recover() == nil {
			t.Fatal("Feed after Flush must panic")
		}
	}()
	sd.Feed(make([]float64, 1))
}
