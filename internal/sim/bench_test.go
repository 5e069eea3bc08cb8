package sim

import (
	"context"
	"testing"

	"uwpos/internal/channel"
	"uwpos/internal/device"
	"uwpos/internal/geom"
)

// benchRound times full protocol rounds (calibration, query, replies,
// report-back) over a fixed group, re-seeded per iteration so every op
// renders and scans the same audio.
func benchRound(b *testing.B, env *channel.Environment, pos []geom.Vec3) {
	specs := make([]DeviceSpec, len(pos))
	for i, p := range pos {
		specs[i] = DeviceSpec{Model: device.GalaxyS9(), Pos: p}
	}
	specs[0].Orient, _ = LeaderOrientation(pos[0], pos[1], 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw, err := NewNetwork(Config{Env: env, Devices: specs, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nw.RunRound(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunRoundDock4(b *testing.B) {
	benchRound(b, channel.Dock(), []geom.Vec3{
		{X: 0, Y: 0, Z: 2}, {X: 8, Y: 2, Z: 3}, {X: 15, Y: -6, Z: 1.5}, {X: 22, Y: 5, Z: 4},
	})
}

func BenchmarkRunRoundBoathouse5(b *testing.B) {
	benchRound(b, channel.Boathouse(), []geom.Vec3{
		{X: 0, Y: 0, Z: 1.5}, {X: 6, Y: 1, Z: 2}, {X: 11, Y: -4, Z: 1}, {X: 16, Y: 3, Z: 2.5}, {X: 20, Y: -2, Z: 1.5},
	})
}
