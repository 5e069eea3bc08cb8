// Package sim is the end-to-end testbed: it places simulated smart devices
// in an underwater environment and runs the complete system — calibration,
// the distributed timestamp protocol, waveform rendering through the
// multipath channel into per-microphone sample streams with independent
// skewed clocks, the full receiver pipeline, the FSK report-back, and
// finally topology localization — exactly the loop the paper deploys at
// the dock and boathouse (Fig. 17).
//
// Nothing in the receive path is oracle-fed: timestamps come out of
// cross-correlation, channel estimation and the dual-mic search over
// rendered audio.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"uwpos/internal/audio"
	"uwpos/internal/channel"
	"uwpos/internal/depth"
	"uwpos/internal/device"
	"uwpos/internal/dsp"
	"uwpos/internal/geom"
	"uwpos/internal/ingest"
	"uwpos/internal/protocol"
	"uwpos/internal/ranging"
	"uwpos/internal/sig"
)

// Trajectory gives a device's position over time. Nil means static.
type Trajectory func(t float64) geom.Vec3

// Linear returns a constant-velocity trajectory from start.
func Linear(start, vel geom.Vec3) Trajectory {
	return func(t float64) geom.Vec3 { return start.Add(vel.Scale(t)) }
}

// Oscillate returns a back-and-forth trajectory around start along dir
// with the given amplitude (m) and speed (m/s) — how the paper moved a
// device "forward and backward around its original position" (§3.2).
func Oscillate(start geom.Vec3, dir geom.Vec3, amplitude, speed float64) Trajectory {
	u := dir.Normalize()
	if amplitude <= 0 || speed <= 0 {
		return func(float64) geom.Vec3 { return start }
	}
	period := 4 * amplitude / speed
	return func(t float64) geom.Vec3 {
		phase := math.Mod(t, period) / period // 0..1
		var off float64
		switch {
		case phase < 0.25:
			off = speed * phase * period
		case phase < 0.75:
			off = amplitude - speed*(phase-0.25)*period
		default:
			off = -amplitude + speed*(phase-0.75)*period
		}
		return start.Add(u.Scale(off))
	}
}

// DeviceSpec configures one simulated device.
type DeviceSpec struct {
	Model      *device.Model
	Pos        geom.Vec3
	Traj       Trajectory // optional mobility
	Orient     device.Orientation
	WatchGauge bool // use the dive-gauge depth sensor instead of the barometer
}

// LinkFault describes a degraded pair: occlusion attenuates the direct ray
// (outlier-producing) while Drop removes the link entirely.
type LinkFault struct {
	A, B      int
	DirectAtt float64 // linear gain on the direct ray (e.g. 0.03); 0 means unset
	Drop      bool    // no energy passes at all
}

// Config assembles a network scenario.
type Config struct {
	Env     *channel.Environment
	Devices []DeviceSpec
	// TxAmplitude is the source amplitude at 1 m for a TXEfficiency-1
	// device (speaker at max volume).
	TxAmplitude float64
	// Faults lists degraded links.
	Faults []LinkFault
	// Seed drives all randomness in the scenario.
	Seed int64
	// Rng, when non-nil, overrides Seed as the scenario's randomness
	// source. The parallel trial engine threads a per-trial RNG through
	// here (see internal/engine's seeding contract); a Network never
	// touches any other random state, so trials sharing nothing but
	// read-only config can run concurrently.
	Rng *rand.Rand
	// SoundSpeedBias (m/s) offsets the receiver's assumed sound speed
	// from the true one (temperature misconfiguration studies).
	SoundSpeedBias float64
	// DisableReportBack short-circuits the FSK report phase and hands the
	// leader the remote timestamp tables losslessly. The default (false)
	// runs the full §2.4 communication system.
	DisableReportBack bool
	// MaxReflections bounds the image-method order (default 3).
	MaxReflections int
	// IngestChunk is the audio-buffer size (samples) every receiver-side
	// ingest pipeline of a round is fed with; 0 means the default OpenSL
	// ES-like grain (4096, ~93 ms at 44.1 kHz). Round results are
	// invariant to this value — ingest correlation runs on a fixed
	// absolute block grid — so it only shapes buffer cadence and memory
	// traffic.
	IngestChunk int
	// IngestMeter, when non-nil, aggregates per-buffer deadline headroom
	// (real-time factors) across every ingest pipeline of the scenario's
	// rounds. Metering reads the monotonic clock per buffer and the meter
	// is not safe for concurrent use, so it is meant for single-worker
	// profiling runs; leave nil otherwise.
	IngestMeter *ingest.Meter
}

// Network is an instantiated scenario.
type Network struct {
	cfg    Config
	env    *channel.Environment
	params sig.Params
	proto  protocol.Params
	rng    *rand.Rand
	// count wraps the Seed-built random source to make the stream
	// position observable for checkpointing (see snapshot.go); nil when
	// the caller supplied Config.Rng.
	count   *countingSource
	devices []*simDevice
	idLen   int       // samples of the MFSK ID section
	pre     []float64 // cached preamble waveform (shared, read-only)
	faults  map[[2]int]LinkFault
	// sensorDepths holds device-side depth readings for the round (what
	// each device would report; the leader only sees them via comms).
	sensorDepths []float64
}

type simDevice struct {
	id     int
	spec   DeviceSpec
	stack  *audio.Stack
	ranger *ranging.Ranger
	sensor *depth.Sensor
	// txIndex is the speaker index of this round's protocol transmission
	// (−1 before scheduling).
	txIndex int
	// syncSource records what the device synchronized to.
	sync protocol.SyncSource
	// zero is the device's local zero as a mic index, once it has synced:
	// its own query's arrival for the leader, the sync arrival minus the
	// sync source's slot for a replier. It anchors the final scan window.
	zero float64
	// slot is when the device transmits in the clock zeroed on the
	// leader's message, following its sync chain (the leader's is 0).
	slot float64
	// heard collects refined arrivals (and announced sync sources) per
	// sender id.
	heard map[int]heardMsg
}

// NewNetwork validates and instantiates a scenario.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("sim: nil environment")
	}
	if err := cfg.Env.Validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Devices)
	if n < 2 {
		return nil, fmt.Errorf("sim: need at least 2 devices, got %d", n)
	}
	if cfg.TxAmplitude == 0 {
		// Calibrated so phone speakers at max volume are comfortably
		// detectable at dive-group ranges but genuinely marginal at the
		// 35–45 m edge of Fig. 11 — matching the paper's SNR regime
		// (Fig. 22: ~30 dB at 10 m, ~10-20 dB at 28 m in-band).
		cfg.TxAmplitude = 0.8
	}
	if cfg.MaxReflections == 0 {
		cfg.MaxReflections = 3
	}
	for i, d := range cfg.Devices {
		if d.Model == nil {
			return nil, fmt.Errorf("sim: device %d has no model", i)
		}
		if err := d.Model.Validate(); err != nil {
			return nil, err
		}
		if d.Pos.Z < 0 || d.Pos.Z > cfg.Env.BottomDepthM {
			return nil, fmt.Errorf("sim: device %d depth %.2f outside water column [0, %.2f]", i, d.Pos.Z, cfg.Env.BottomDepthM)
		}
	}
	params := sig.DefaultParams()
	proto := protocol.DefaultParams(n)
	rng := cfg.Rng
	var count *countingSource
	if rng == nil {
		// Seed-built scenarios draw through a counting wrapper whose
		// output is bit-identical to the raw source, so the stream
		// position — the Network's only cross-round mutable state — can
		// be checkpointed and replayed (snapshot.go).
		count = newCountingSource(cfg.Seed)
		rng = rand.New(count)
	}
	nw := &Network{
		cfg:    cfg,
		env:    cfg.Env,
		params: params,
		proto:  proto,
		rng:    rng,
		count:  count,
		idLen:  int(0.055 * params.SampleRate), // preamble 223 ms + ID 55 ms = T_packet
		pre:    sig.SharedPreamble(params),
		faults: make(map[[2]int]LinkFault),
	}
	for _, f := range cfg.Faults {
		if f.A == f.B || f.A < 0 || f.B < 0 || f.A >= n || f.B >= n {
			return nil, fmt.Errorf("sim: fault on invalid pair (%d,%d)", f.A, f.B)
		}
		nw.faults[pairKey(f.A, f.B)] = f
	}
	return nw, nil
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Params exposes the preamble numerology in use.
func (nw *Network) Params() sig.Params { return nw.params }

// Proto exposes the protocol timing in use.
func (nw *Network) Proto() protocol.Params { return nw.proto }

// N returns the device count.
func (nw *Network) N() int { return len(nw.cfg.Devices) }

// TruePositions returns ground-truth positions at time t.
func (nw *Network) TruePositions(t float64) []geom.Vec3 {
	out := make([]geom.Vec3, nw.N())
	for i, d := range nw.cfg.Devices {
		if d.Traj != nil {
			out[i] = d.Traj(t)
		} else {
			out[i] = d.Pos
		}
	}
	return out
}

// SoundSpeedAssumed is the speed the receiver-side arithmetic uses
// (true environment speed at mid-depth plus the configured bias).
func (nw *Network) SoundSpeedAssumed() float64 {
	var zSum float64
	for _, d := range nw.cfg.Devices {
		zSum += d.Pos.Z
	}
	return nw.env.SoundSpeed(zSum/float64(nw.N())) + nw.cfg.SoundSpeedBias
}

// messageWave builds the on-air packet: ranging preamble followed by two
// MFSK bursts — the sender's ID and its sync-source ID. The second field
// is the §2.3 mechanism ("device i transmits its ID and the ID for device
// j") that tells everyone which clock the sender's slot was derived from;
// it also lets the leader compute D(0,i) for leader-synced devices purely
// from slot arithmetic, without waiting for the report phase.
// The buffer comes from the shared dsp scratch pool; callers release it
// with releaseWave once it has been written to the speaker stream and
// rendered through the channel (both copy).
func (nw *Network) messageWave(id, syncID int) []float64 {
	pre := nw.pre
	mfsk := sig.NewMFSK(nw.N(), nw.params.SampleRate)
	half := nw.idLen / 2
	idw := mfsk.EncodeID(id, half)
	sw := mfsk.EncodeID(syncID, nw.idLen-half)
	out := dsp.GetF64(len(pre) + nw.idLen)
	copy(out, pre)
	copy(out[len(pre):], idw)
	copy(out[len(pre)+half:], sw)
	return out
}

// releaseWave hands a messageWave buffer back to the scratch pool.
func releaseWave(w []float64) { dsp.PutF64(w) }

// linkGain returns the combined TX/RX scalar gain for a transmission from
// a to b, folding speaker efficiency, directivity at both ends and the
// per-mic sensitivity. micIdx selects b's microphone.
func (nw *Network) linkGain(a, b *simDevice, micIdx int, posA, posB geom.Vec3) float64 {
	dir := posB.Sub(posA).Normalize()
	g := nw.cfg.TxAmplitude
	g *= a.spec.Model.TXEfficiency
	g *= a.spec.Orient.DirectivityGain(dir)
	g *= b.spec.Orient.DirectivityGain(dir.Scale(-1))
	g *= b.spec.Model.RXSensitivity[micIdx]
	return g
}

// micPath is one receiver microphone's impulse response for a
// transmission, placed on that mic's sample timeline.
type micPath struct {
	dst []float64
	arr []channel.Arrival
}

// renderTransmission pushes wave (transmitted by tx from speaker index
// txIdx) through the channel into every device's microphone streams,
// its own included. Every path is drawn first, so the wave's spectrum is
// computed once, at an FFT size that covers the widest response, and
// shared by all of them.
func (nw *Network) renderTransmission(tx *simDevice, txIdx int, wave []float64) {
	tTx := tx.stack.SpeakerIndexToTime(float64(txIdx))
	posTx := nw.posAt(tx, tTx)
	spk := tx.spec.Model.SpeakerWorldPosition(posTx, tx.spec.Orient)
	var paths []micPath
	for _, rx := range nw.devices {
		if rx.id == tx.id {
			paths = nw.appendSelfLoopback(paths, tx, tTx)
			continue
		}
		fault, hasFault := nw.faults[pairKey(tx.id, rx.id)]
		if hasFault && fault.Drop {
			continue
		}
		directGain := 1.0
		occludeShallow := false
		if hasFault && fault.DirectAtt > 0 {
			directGain = fault.DirectAtt
			occludeShallow = true
		}
		// Receiver position at approximate arrival time.
		nominalDelay := nw.env.DirectDelay(posTx, nw.posAt(rx, tTx))
		posRx := nw.posAt(rx, tTx+nominalDelay)
		mics := rx.spec.Model.MicWorldPositions(posRx, rx.spec.Orient)
		// One wave-state draw per transmission/receiver: both mics see
		// the same perturbed surface and the same direct-ray fade.
		jitter := nw.env.DrawSurfaceJitter(nw.rng, nw.cfg.MaxReflections, posTx.Dist(posRx))
		for mi, micPos := range mics {
			taps := nw.env.ImpulseResponse(spk, micPos, channel.ImpulseOptions{
				MaxOrder:         nw.cfg.MaxReflections,
				DirectAttenuated: directGain,
				OccludeShallow:   occludeShallow,
			})
			taps = jitter.Apply(taps)
			taps = nw.env.WithScatter(taps, nw.rng)
			gain := nw.linkGain(tx, rx, mi, posTx, posRx)
			// Map each tap to the receiver's mic-sample timeline,
			// honouring both devices' clock skews.
			arr := make([]channel.Arrival, len(taps))
			for ti, tap := range taps {
				arr[ti] = channel.Arrival{
					Index:     rx.stack.TimeToMicIndex(tTx + tap.DelaySec),
					Amplitude: tap.Amplitude * gain,
				}
			}
			if len(arr) > 0 {
				paths = append(paths, micPath{dst: rx.stack.Mic(mi), arr: arr})
			}
		}
	}
	var span float64
	for _, p := range paths {
		// Taps are sorted by delay and the clock mapping is monotone.
		span = max(span, p.arr[len(p.arr)-1].Index-p.arr[0].Index)
	}
	src := channel.NewSource(wave, span)
	for _, p := range paths {
		src.Add(p.dst, p.arr)
	}
	src.Release()
}

// appendSelfLoopback appends the near-field speaker→own-mic paths (δ₂):
// one strong direct tap with centimetre delay per mic, used by
// self-calibration.
func (nw *Network) appendSelfLoopback(paths []micPath, d *simDevice, tTx float64) []micPath {
	c := nw.env.SoundSpeed(d.spec.Pos.Z)
	for mi := 0; mi < d.stack.NumMics(); mi++ {
		micOff := d.spec.Model.MicOffsets[mi].Sub(d.spec.Model.SpeakerOffset).Norm()
		if micOff < 0.01 {
			micOff = 0.01
		}
		// Near field: loud but bounded.
		arr := []channel.Arrival{{Index: d.stack.TimeToMicIndex(tTx + micOff/c), Amplitude: 0.9}}
		paths = append(paths, micPath{dst: d.stack.Mic(mi), arr: arr})
	}
	return paths
}

// releaseAudio hands every device's stream buffers back to the dsp scratch
// pool. It runs at trial end — after all receiver processing — and the
// round's outputs (timestamp tables, distances, depths, TOA indices) hold
// no references into the streams, so release is safe. setupDevices builds
// fresh stacks for the next round.
func (nw *Network) releaseAudio() {
	for _, d := range nw.devices {
		if d.stack != nil {
			d.stack.Release()
		}
	}
}

func (nw *Network) posAt(d *simDevice, t float64) geom.Vec3 {
	if d.spec.Traj != nil {
		return d.spec.Traj(t)
	}
	return d.spec.Pos
}
