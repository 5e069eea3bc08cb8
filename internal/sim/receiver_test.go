package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"uwpos/internal/channel"
	"uwpos/internal/device"
	"uwpos/internal/geom"
	"uwpos/internal/ingest"
)

// Dive groups shared by the receiver tests and the round benchmarks.
var (
	dock4Pos = []geom.Vec3{
		{X: 0, Y: 0, Z: 2}, {X: 8, Y: 2, Z: 3}, {X: 15, Y: -6, Z: 1.5}, {X: 22, Y: 5, Z: 4},
	}
	boathouse5Pos = []geom.Vec3{
		{X: 0, Y: 0, Z: 1.5}, {X: 6, Y: 1, Z: 2}, {X: 11, Y: -4, Z: 1}, {X: 16, Y: 3, Z: 2.5}, {X: 20, Y: -2, Z: 1.5},
	}
	// dock13Pos is a group of 13 divers, the session service's maximum,
	// on a 12 m ring around the leader's side.
	dock13Pos = ringPositions(13, 12)
)

// ringPositions places n divers evenly on a circle of radius r metres at
// depths cycling through 1–4 m.
func ringPositions(n int, r float64) []geom.Vec3 {
	pos := make([]geom.Vec3, n)
	for i := range pos {
		a := 2 * math.Pi * float64(i) / float64(n)
		pos[i] = geom.Vec3{X: r * math.Cos(a), Y: r * math.Sin(a), Z: 1 + float64(i%4)}
	}
	return pos
}

// groupConfig places Galaxy S9 phones at pos, the leader pointing at
// device 1.
func groupConfig(env *channel.Environment, pos []geom.Vec3, seed int64, faults ...LinkFault) Config {
	specs := make([]DeviceSpec, len(pos))
	for i, p := range pos {
		specs[i] = DeviceSpec{Model: device.GalaxyS9(), Pos: p}
	}
	specs[0].Orient, _ = LeaderOrientation(pos[0], pos[1], 0)
	return Config{Env: env, Devices: specs, Seed: seed, Faults: faults}
}

// receiverCase is one scenario family of the receiver equivalence tests,
// run for seeds 1 to seeds (8 when zero). check, when set, asserts that
// the scenario really exercised the protocol path it exists for.
type receiverCase struct {
	name  string
	seeds int64
	cfg   func(seed int64) Config
	check func(t *testing.T, nw *Network)
}

// forEachRound runs body on every scenario and seed of receiverCases as
// a subtest.
func forEachRound(t *testing.T, body func(t *testing.T, rc receiverCase, seed int64)) {
	for _, rc := range receiverCases() {
		seeds := rc.seeds
		if seeds == 0 {
			seeds = 8
		}
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", rc.name, seed), func(t *testing.T) { body(t, rc, seed) })
		}
	}
}

func receiverCases() []receiverCase {
	return []receiverCase{
		{name: "dock4", cfg: func(seed int64) Config {
			cfg := groupConfig(channel.Dock(), dock4Pos, seed)
			if seed == 3 {
				cfg.Faults = []LinkFault{{A: 1, B: 2, DirectAtt: 0.03}} // occluded direct ray
			}
			return cfg
		}},
		{name: "boathouse5", cfg: func(seed int64) Config {
			return groupConfig(channel.Boathouse(), boathouse5Pos, seed)
		}},
		// Device 1 cannot hear the leader and has nothing else to hear in
		// the first pass, so it syncs to device 2 in the deferred wrap pass.
		{name: "dock4-deferred", cfg: func(seed int64) Config {
			return groupConfig(channel.Dock(), dock4Pos, seed, LinkFault{A: 0, B: 1, Drop: true})
		}, check: func(t *testing.T, nw *Network) {
			if s := nw.devices[1].sync; s.From == 0 || !s.Missed {
				t.Errorf("device 1 synced to %+v, want a wrap off a replier", s)
			}
		}},
		// Device 3 hears only device 2 and wraps off its slot, so it
		// transmits in the last wrap slot, RoundTime(false) after the
		// leader's message.
		{name: "dock4-lastwrap", cfg: func(seed int64) Config {
			return groupConfig(channel.Dock(), dock4Pos, seed,
				LinkFault{A: 0, B: 3, Drop: true}, LinkFault{A: 1, B: 3, Drop: true})
		}, check: func(t *testing.T, nw *Network) {
			if s := nw.devices[3].sync; s.From != 2 || !s.Missed {
				t.Errorf("device 3 synced to %+v, want the wrap off device 2", s)
			}
			if _, ok := nw.devices[2].heard[3]; !ok {
				t.Error("device 2 did not hear device 3's last-wrap-slot packet")
			}
		}},
		// A chained wrap: device 3 alone hears the leader. In the wrap
		// pass device 1 syncs to device 3 and sends N·Δ1 past its slot;
		// device 2 hears only device 1 and wraps again, past
		// RoundTime(false).
		{name: "dock4-chainwrap", cfg: func(seed int64) Config {
			return groupConfig(channel.Dock(), dock4Pos, seed, LinkFault{A: 0, B: 1, Drop: true},
				LinkFault{A: 0, B: 2, Drop: true}, LinkFault{A: 2, B: 3, Drop: true})
		}, check: func(t *testing.T, nw *Network) {
			if s := nw.devices[2].sync; s.From != 1 || !s.Missed {
				t.Errorf("device 2 synced to %+v, want the wrap off device 1", s)
			}
			if slot := nw.devices[2].slot; slot <= nw.proto.RoundTime(false) {
				t.Errorf("device 2 sends at %.3f s, not past RoundTime(false) = %.3f s", slot, nw.proto.RoundTime(false))
			}
			if _, ok := nw.devices[1].heard[2]; !ok {
				t.Error("device 1 did not hear device 2's chained-wrap packet")
			}
		}},
		// The largest group the session service accepts: more than
		// MaxCandidates correlation peaks per stream.
		{name: "dock13", seeds: 2, cfg: func(seed int64) Config {
			return groupConfig(channel.Dock(), dock13Pos, seed)
		}},
	}
}

// firstMessageFullScan is the reference for firstDetectedMessage: decode
// every message in d's whole current stream and take the foreign one
// with the smallest arrival.
func (nw *Network) firstMessageFullScan(d *simDevice) (detected, bool) {
	best, ok := detected{}, false
	for _, m := range nw.detectMessages(d, d.stack.StreamLen()) {
		if m.sender != d.id && (!ok || m.toa.ArrivalIdx < best.toa.ArrivalIdx) {
			best, ok = m, true
		}
	}
	return best, ok
}

// runRangingPhase runs a round up to its final receiver processing
// exactly as RunRound does, calling before (when non-nil) ahead of every
// reply decision. The caller releases the audio.
func runRangingPhase(t *testing.T, cfg Config, before func(*Network, *simDevice)) *Network {
	t.Helper()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := nw.setupDevices(nw.streamDuration()); err != nil {
		t.Fatal(err)
	}
	nw.addNoise()
	if err := nw.calibrateAll(ctx); err != nil {
		nw.releaseAudio()
		t.Fatal(err)
	}
	nw.transmitQuery()
	if _, err := nw.scheduleReplies(ctx, func(d *simDevice) bool {
		if before != nil {
			before(nw, d)
		}
		return nw.scheduleReply(d)
	}); err != nil {
		nw.releaseAudio()
		t.Fatal(err)
	}
	return nw
}

// TestFirstMessageEarlyStopMatchesFullScan checks the early-stopping reply
// search against a full scan of each partial stream at every reply
// decision of the round, and that it stops before the stream's end
// whenever there was a message to find.
func TestFirstMessageEarlyStopMatchesFullScan(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic rounds")
	}
	forEachRound(t, func(t *testing.T, rc receiverCase, seed int64) {
		cfg := rc.cfg(seed)
		// The meter counts the samples every ingest pipeline of the round
		// is fed, which includes the early-stopping session's.
		meter := ingest.NewMeter(1)
		cfg.IngestMeter = meter
		nw := runRangingPhase(t, cfg, func(nw *Network, d *simDevice) {
			if d.txIndex >= 0 {
				return
			}
			want, wantOK := nw.firstMessageFullScan(d)
			before := meter.Report().Samples
			got, ok := nw.firstDetectedMessage(d)
			fed := meter.Report().Samples - before
			if ok != wantOK || got.sender != want.sender || got.toa.ArrivalIdx != want.toa.ArrivalIdx {
				t.Errorf("device %d: early stop (%v, %d, %v), full scan (%v, %d, %v)",
					d.id, got.toa.ArrivalIdx, got.sender, ok, want.toa.ArrivalIdx, want.sender, wantOK)
			}
			if ok && fed >= d.stack.StreamLen() {
				t.Errorf("device %d: fed %d of %d samples despite an early message", d.id, fed, d.stack.StreamLen())
			}
		})
		defer nw.releaseAudio()
		for _, d := range nw.devices {
			if err := nw.processArrivals(d); err != nil {
				t.Fatal(err)
			}
		}
		if rc.check != nil {
			rc.check(t, nw)
		}
	})
}

// sameHeard compares two heard maps: the same senders, each with the same
// refined arrival, coarse index, mic sign and announced sync source. The
// correlation and PN scores may differ in the last bits, because the
// transform blocks straddling a scan's end see zeros instead of the
// samples that follow, which changes their rounding but no decision.
func sameHeard(a, b map[int]heardMsg) bool {
	if len(a) != len(b) {
		return false
	}
	for id, ma := range a {
		mb, ok := b[id]
		if !ok {
			return false
		}
		da, db := ma.toa.Detection, mb.toa.Detection
		if math.Abs(da.CorrPeak-db.CorrPeak) > 1e-12 || math.Abs(da.AutoCorr-db.AutoCorr) > 1e-12 {
			return false
		}
		da.CorrPeak, da.AutoCorr = db.CorrPeak, db.AutoCorr
		ma.toa.Detection = da
		if ma != mb {
			return false
		}
	}
	return true
}

// TestRangingWindowKeepsEveryArrival checks that bounding the final scan
// to the ranging phase loses nothing: on every device, the windowed scan
// hears exactly what a scan of the whole stream hears, including the
// packet sent in the last wrap slot and the one a chained wrap sends past
// RoundTime(false). Unless a chained wrap extends the ranging phase, the
// window of every synced device ends before the stream does.
func TestRangingWindowKeepsEveryArrival(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic rounds")
	}
	forEachRound(t, func(t *testing.T, rc receiverCase, seed int64) {
		nw := runRangingPhase(t, rc.cfg(seed), nil)
		defer nw.releaseAudio()
		for _, d := range nw.devices {
			end := nw.scanEnd(d)
			if d.txIndex >= 0 && nw.lastSlot() == nw.proto.RoundTime(false) && end >= d.stack.StreamLen() {
				t.Errorf("device %d scans the whole stream", d.id)
			}
			if err := nw.processArrivals(d); err != nil {
				t.Fatal(err)
			}
			full := heardFrom(nw.detectMessages(d, d.stack.StreamLen()), d.id)
			if !sameHeard(d.heard, full) {
				t.Errorf("device %d: window [0, %d) heard %v, whole stream %v", d.id, end, d.heard, full)
			}
		}
		if rc.check != nil {
			rc.check(t, nw)
		}
	})
}
