package sim

import (
	"context"
	"testing"

	"uwpos/internal/channel"
	"uwpos/internal/geom"
)

// benchRound times full protocol rounds (calibration, query, replies,
// report-back) over a fixed group, re-seeded per iteration so every op
// renders and scans the same audio.
func benchRound(b *testing.B, env *channel.Environment, pos []geom.Vec3) {
	cfg := groupConfig(env, pos, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw, err := NewNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nw.RunRound(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunRoundDock4(b *testing.B) { benchRound(b, channel.Dock(), dock4Pos) }

func BenchmarkRunRoundBoathouse5(b *testing.B) { benchRound(b, channel.Boathouse(), boathouse5Pos) }
