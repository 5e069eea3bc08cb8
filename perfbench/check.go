package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"uwpos"
)

// checkPositions verifies a localization result: positions cover devices
// 0..n−1 exactly, every coordinate is finite, and every dropped link names
// two distinct devices in range.
func checkPositions(res *uwpos.Result, n int) error {
	if res == nil {
		return fmt.Errorf("nil result")
	}
	devs := make([]int, len(res.Positions))
	coords := make([][3]float64, len(res.Positions))
	for i, p := range res.Positions {
		devs[i], coords[i] = p.Device, [3]float64{p.Pos.X, p.Pos.Y, p.Pos.Z}
	}
	if err := checkDevices(devs, coords, n); err != nil {
		return err
	}
	if !finite(res.ResidualStress) {
		return fmt.Errorf("residual stress %v", res.ResidualStress)
	}
	return checkLinks(res.DroppedLinks, n)
}

// checkDevices verifies that devs is a permutation of 0..n−1 and coords
// are finite.
func checkDevices(devs []int, coords [][3]float64, n int) error {
	if len(devs) != n {
		return fmt.Errorf("%d positions for %d devices", len(devs), n)
	}
	seen := make([]bool, n)
	for i, d := range devs {
		if d < 0 || d >= n || seen[d] {
			return fmt.Errorf("device index %d invalid or repeated (n=%d)", d, n)
		}
		seen[d] = true
		for _, c := range coords[i] {
			if !finite(c) {
				return fmt.Errorf("device %d has non-finite coordinate %v", d, c)
			}
		}
	}
	return nil
}

func checkLinks(links [][2]int, n int) error {
	for _, l := range links {
		if l[0] < 0 || l[1] < 0 || l[0] >= n || l[1] >= n || l[0] == l[1] {
			return fmt.Errorf("dropped link %v out of range (n=%d)", l, n)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// err2D is the horizontal error of each non-leader device in the leader's
// frame, as the paper's figures score it.
func err2D(xy [][2]float64, truth []uwpos.Vec3) []float64 {
	out := make([]float64, 0, len(truth)-1)
	for i := 1; i < len(truth); i++ {
		want := truth[i].Sub(truth[0])
		out = append(out, math.Hypot(xy[i][0]-want.X, xy[i][1]-want.Y))
	}
	return out
}

// resultXY indexes a result's horizontal coordinates by device.
func resultXY(res *uwpos.Result) [][2]float64 {
	xy := make([][2]float64, len(res.Positions))
	for _, p := range res.Positions {
		xy[p.Device] = [2]float64{p.Pos.X, p.Pos.Y}
	}
	return xy
}

// digest hashes the bit patterns of values, so that two runs of one input
// can be compared exactly.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) add(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:]) // hash writes never fail
	}
}

func (d digest) sum() uint64 { return d.h.Sum64() }

func resultDigest(res *uwpos.Result) uint64 {
	d := newDigest()
	for _, p := range res.Positions {
		d.add(float64(p.Device), p.Pos.X, p.Pos.Y, p.Pos.Z)
	}
	d.add(res.ResidualStress)
	for _, l := range res.DroppedLinks {
		d.add(float64(l[0]), float64(l[1]))
	}
	return d.sum()
}
