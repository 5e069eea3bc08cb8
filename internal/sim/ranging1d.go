package sim

import (
	"context"
	"fmt"
	"math"

	"uwpos/internal/channel"
	"uwpos/internal/device"
	"uwpos/internal/dsp"
	"uwpos/internal/geom"
	"uwpos/internal/ingest"
	"uwpos/internal/ranging"
	"uwpos/internal/sig"
)

// RangingMethod selects the 1D time-of-arrival estimator under test.
type RangingMethod int

// Methods compared in Fig. 11b and Fig. 12.
const (
	MethodDualMic RangingMethod = iota // ours: §2.2 full pipeline
	MethodBottomMicOnly
	MethodTopMicOnly
	MethodBeepBeep // chirp auto-correlation baseline [75]
	MethodCAT      // FMCW mixing baseline [64]
)

// String names the method.
func (m RangingMethod) String() string {
	switch m {
	case MethodDualMic:
		return "ours-dual-mic"
	case MethodBottomMicOnly:
		return "bottom-only"
	case MethodTopMicOnly:
		return "top-only"
	case MethodBeepBeep:
		return "beepbeep"
	case MethodCAT:
		return "cat-fmcw"
	default:
		return "unknown"
	}
}

// RangeTrialResult is one two-way ranging exchange.
type RangeTrialResult struct {
	EstimatedM float64
	TrueM      float64
	Detected   bool // both directions detected
}

// AbsError returns |estimate − truth| (Inf when undetected).
func (r RangeTrialResult) AbsError() float64 {
	if !r.Detected {
		return math.Inf(1)
	}
	return math.Abs(r.EstimatedM - r.TrueM)
}

// RangeOnce runs one two-way 1D ranging exchange between the scenario's
// first two devices with the chosen method. The exchange is the standard
// two-way scheme: A transmits, B replies a fixed interval after *its own*
// arrival estimate, and A converts the round trip to distance — so the
// method's estimation error enters at both ends, as in the paper's
// benchmarks.
//
// ctx is checked at each stage boundary (calibration, each direction's
// arrival estimation); a cancelled or expired context aborts the exchange
// with the context's error. An uncancelled ctx leaves execution — and
// every RNG draw — identical to a deadline-free run.
func (nw *Network) RangeOnce(ctx context.Context, method RangingMethod) (RangeTrialResult, error) {
	if nw.N() < 2 {
		return RangeTrialResult{}, fmt.Errorf("sim: ranging needs 2 devices")
	}
	const (
		txAt      = 0.70 // A transmits (local time)
		replyGap  = 0.50 // B's desired reply interval
		tailSlack = 0.60
	)
	wave := nw.rangingWave(method)
	dur := txAt + replyGap + tailSlack + 2*float64(len(wave))/nw.params.SampleRate
	if err := nw.setupDevices(dur); err != nil {
		return RangeTrialResult{}, err
	}
	// Trial-end release hook: the exchange's estimates are plain scalars,
	// so the audio slabs go straight back to the pool.
	defer nw.releaseAudio()
	nw.addNoise()
	if err := nw.calibrateAll(ctx); err != nil {
		return RangeTrialResult{}, err
	}
	a, b := nw.devices[0], nw.devices[1]
	fs := nw.params.SampleRate

	// A transmits.
	txIdx := int(txAt * fs)
	a.txIndex = txIdx
	a.stack.WriteSpeaker(txIdx, wave)
	nw.renderTransmission(a, txIdx, wave)

	// B estimates arrival and replies.
	if err := ctx.Err(); err != nil {
		return RangeTrialResult{}, err
	}
	arrB, okB := nw.estimateArrival(b, method, wave, int(calWindowEnd*fs))
	if !okB {
		return RangeTrialResult{TrueM: nw.trueRange(), Detected: false}, nil
	}
	replyIdx := b.stack.ReplyIndex(int(math.Round(arrB)), replyGap)
	b.txIndex = replyIdx
	b.stack.WriteSpeaker(replyIdx, wave)
	nw.renderTransmission(b, replyIdx, wave)

	// A estimates the reply arrival, skipping its own transmission.
	if err := ctx.Err(); err != nil {
		return RangeTrialResult{}, err
	}
	searchFrom := txIdx + len(wave)
	arrA, okA := nw.estimateArrival(a, method, wave, searchFrom)
	if !okA {
		return RangeTrialResult{TrueM: nw.trueRange(), Detected: false}, nil
	}
	// Round trip in A's clock: reply arrival − own TX (via calibration).
	tOwn := a.ownTxLocalTime(fs)
	rtt := arrA/fs - tOwn
	c := nw.SoundSpeedAssumed()
	est := c * (rtt - replyGap) / 2
	return RangeTrialResult{EstimatedM: est, TrueM: nw.trueRange(), Detected: true}, nil
}

func (nw *Network) trueRange() float64 {
	pos := nw.TruePositions(0.70)
	return pos[0].Dist(pos[1])
}

// rangingWave returns the on-air waveform for the method: the ZC-OFDM
// preamble for ours, a chirp of identical duration and bandwidth for the
// baselines (the paper controls both for fairness).
func (nw *Network) rangingWave(method RangingMethod) []float64 {
	switch method {
	case MethodBeepBeep, MethodCAT:
		p := nw.params
		return sig.LinearChirp(p.BandLowHz, p.BandHighHz, p.PreambleLen(), p.SampleRate)
	default:
		return nw.pre // cached, read-only
	}
}

// estimateArrival applies the method's ToA estimator to the device's
// stream, considering only arrivals at or after searchFrom.
func (nw *Network) estimateArrival(d *simDevice, method RangingMethod, wave []float64, searchFrom int) (float64, bool) {
	mic0 := d.stack.Mic(0)
	switch method {
	case MethodDualMic, MethodBottomMicOnly, MethodTopMicOnly:
		var m1, m2 []float64
		switch method {
		case MethodDualMic:
			m1, m2 = mic0, d.stack.Mic(1)
		case MethodBottomMicOnly:
			m1, m2 = mic0, nil
		case MethodTopMicOnly:
			m1, m2 = d.stack.Mic(1), nil
		}
		results, err := d.ranger.ProcessDualMic(m1, m2)
		if err != nil {
			return 0, false
		}
		for _, r := range results {
			if r.ArrivalIdx >= float64(searchFrom) {
				return r.ArrivalIdx, true
			}
		}
		return 0, false
	case MethodBeepBeep:
		bb := ranging.NewBeepBeep(wave)
		corr, release := nw.scanTail(bb.Bank(), d, searchFrom)
		if corr == nil {
			return 0, false
		}
		defer release()
		idx, ok := bb.ArrivalFromCorr(corr)
		if !ok {
			return 0, false
		}
		return float64(searchFrom) + idx, true
	case MethodCAT:
		cat := ranging.NewCAT(wave, nw.params.SampleRate, nw.params.BandHighHz-nw.params.BandLowHz)
		corr, release := nw.scanTail(cat.Bank(), d, searchFrom)
		if corr == nil {
			return 0, false
		}
		defer release()
		idx, ok := cat.ArrivalFromCorr(corr, mic0[searchFrom:])
		if !ok {
			return 0, false
		}
		return float64(searchFrom) + idx, true
	}
	return 0, false
}

// scanTail runs one ingest pipeline over the device's mic-0 stream from
// searchFrom on — buffer by buffer, like every other receiver scan of the
// round — and collects the bank's normalized correlation of template 0
// for the baselines' peak rules. The returned slice is pool-backed; call
// release when done. A nil bank or empty tail returns nil.
func (nw *Network) scanTail(bank *dsp.MatcherBank, d *simDevice, searchFrom int) (corr []float64, release func()) {
	if bank == nil {
		return nil, nil
	}
	tail := d.stack.StreamLen() - searchFrom
	if tail <= 0 {
		return nil, nil
	}
	pipe := ingest.New(ingest.Config{
		Bank:       bank,
		Normalized: true,
		SampleRate: nw.params.SampleRate,
		Meter:      nw.cfg.IngestMeter,
	})
	col := ingest.NewCollect(0, tail)
	pipe.Register(col)
	for chunk := range d.stack.MicChunksRange(0, searchFrom, d.stack.StreamLen(), nw.ingestChunk()) {
		pipe.Push(chunk)
	}
	pipe.Close()
	return col.Corr(), col.Release
}

// TwoDeviceConfig builds the canonical two-phone benchmark scenario:
// Galaxy S9 devices at the given horizontal separation and depths in env,
// speakers and microphones facing each other as in the paper's §3.1 rig.
func TwoDeviceConfig(env *channel.Environment, sepM, depthA, depthB float64, seed int64) Config {
	return Config{
		Env: env,
		Devices: []DeviceSpec{
			{Model: device.GalaxyS9(), Pos: geom.Vec3{X: 0, Y: 0, Z: depthA}},
			{Model: device.GalaxyS9(), Pos: geom.Vec3{X: sepM, Y: 0, Z: depthB},
				Orient: device.Orientation{AzimuthRad: math.Pi}},
		},
		Seed: seed,
	}
}
