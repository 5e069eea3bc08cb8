package protocol

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"uwpos/internal/geom"
)

func TestParamsDefaults(t *testing.T) {
	p := DefaultParams(5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Delta1()-0.320) > 1e-12 {
		t.Errorf("Δ1 = %g, want 0.320", p.Delta1())
	}
	// Guard of 42 ms at 1500 m/s → 31.5 m unambiguous range (paper: 32 m).
	if r := p.maxRange(1500); math.Abs(r-31.5) > 1e-9 {
		t.Errorf("max range %g", r)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{N: 1, Delta0: 1, TPacket: 1}).Validate(); err == nil {
		t.Error("N=1 should fail")
	}
	if err := (Params{N: 3, Delta0: 0, TPacket: 1}).Validate(); err == nil {
		t.Error("zero Δ0 should fail")
	}
}

func TestSlotTimes(t *testing.T) {
	p := DefaultParams(5)
	// Device 1 transmits at Δ0; device 4 at Δ0 + 3Δ1.
	if got := p.SlotTime(1); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("slot 1 = %g", got)
	}
	if got := p.SlotTime(4); math.Abs(got-(0.6+3*0.32)) > 1e-12 {
		t.Errorf("slot 4 = %g", got)
	}
	for _, id := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SlotTime(%d) should panic", id)
				}
			}()
			p.SlotTime(id)
		}()
	}
}

func TestRoundTimeMatchesPaperTable(t *testing.T) {
	// §3.2: measured mean round times 1.2/1.6/1.9/2.2/2.5 s for N=3..7.
	want := map[int]float64{3: 1.24, 4: 1.56, 5: 1.88, 6: 2.20, 7: 2.52}
	for n, rt := range want {
		got := DefaultParams(n).RoundTime(true)
		if math.Abs(got-rt) > 1e-9 {
			t.Errorf("N=%d round time %g, want %g", n, got, rt)
		}
	}
	// Out-of-range doubles the slot span.
	p := DefaultParams(4)
	if got, want := p.RoundTime(false), 0.6+2*3*0.32; math.Abs(got-want) > 1e-12 {
		t.Errorf("wrap round time %g, want %g", got, want)
	}
}

func TestTransmitOffsetLeaderSync(t *testing.T) {
	p := DefaultParams(6)
	off, src := p.TransmitOffset(3, 0)
	if math.Abs(off-(0.6+2*0.32)) > 1e-12 {
		t.Errorf("offset %g", off)
	}
	if src.From != 0 || src.Missed {
		t.Errorf("src %+v", src)
	}
}

func TestTransmitOffsetRelaySync(t *testing.T) {
	p := DefaultParams(8)
	// i=5 hears j=2 first: (5−2)Δ1 = 0.96 > Δ0=0.6 → feasible.
	off, src := p.TransmitOffset(5, 2)
	if math.Abs(off-3*0.32) > 1e-12 {
		t.Errorf("offset %g", off)
	}
	if src.From != 2 || src.Missed {
		t.Errorf("src %+v", src)
	}
	// i=3 hears j=2: (3−2)Δ1 = 0.32 < Δ0 → missed, wrap (8−2+3)Δ1.
	off, src = p.TransmitOffset(3, 2)
	if math.Abs(off-9*0.32) > 1e-12 {
		t.Errorf("wrap offset %g", off)
	}
	if !src.Missed {
		t.Error("should be marked missed")
	}
	// i earlier than j always wraps ((i−j) negative).
	off, _ = p.TransmitOffset(2, 6)
	if math.Abs(off-float64(8-6+2)*0.32) > 1e-12 {
		t.Errorf("early-id wrap offset %g", off)
	}
}

func TestTransmitOffsetPanics(t *testing.T) {
	p := DefaultParams(4)
	for _, c := range [][2]int{{0, 1}, {4, 0}, {2, 2}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TransmitOffset(%d,%d) should panic", c[0], c[1])
				}
			}()
			p.TransmitOffset(c[0], c[1])
		}()
	}
}

// simulateRound fills a Table from ground-truth geometry: device i
// transmits at absolute time a[i]; arrivals are a[j] + distance/c. Each
// device's local clock has a random offset (the protocol must cancel it).
// heard[i][j] = false drops that observation.
func simulateRound(pos []geom.Vec3, a []float64, c float64, offsets []float64, heard func(i, j int) bool) *Table {
	n := len(pos)
	tab := NewTable(n)
	for i := 0; i < n; i++ {
		tab.Observe(i, i, a[i]-offsets[i])
		for j := 0; j < n; j++ {
			if i == j || !heard(i, j) {
				continue
			}
			tau := pos[i].Dist(pos[j]) / c
			tab.Observe(i, j, a[j]+tau-offsets[i])
		}
	}
	return tab
}

func layout() []geom.Vec3 {
	return []geom.Vec3{
		{X: 0, Y: 0, Z: 2},
		{X: 8, Y: 1, Z: 3},
		{X: 15, Y: -4, Z: 1},
		{X: 11, Y: 9, Z: 4},
		{X: 21, Y: 3, Z: 2},
	}
}

func protocolTxTimes(p Params, n int) []float64 {
	a := make([]float64, n)
	a[0] = 0
	for i := 1; i < n; i++ {
		a[i] = p.SlotTime(i)
	}
	return a
}

func TestDistancesTwoWayExact(t *testing.T) {
	pos := layout()
	const c = 1480.0
	p := DefaultParams(len(pos))
	a := protocolTxTimes(p, len(pos))
	offsets := []float64{0.123, -4.56, 7.89, 0.001, -2.5}
	tab := simulateRound(pos, a, c, offsets, func(i, j int) bool { return true })
	d, w := tab.Distances(c)
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if w[i][j] != 1 {
				t.Fatalf("link %d-%d unresolved", i, j)
			}
			want := pos[i].Dist(pos[j])
			if math.Abs(d[i][j]-want) > 1e-9 {
				t.Errorf("D[%d][%d] = %g, want %g", i, j, d[i][j], want)
			}
		}
	}
}

func TestDistancesMissingLink(t *testing.T) {
	pos := layout()
	const c = 1480.0
	p := DefaultParams(len(pos))
	a := protocolTxTimes(p, len(pos))
	offsets := make([]float64, len(pos))
	// Devices 2 and 3 never hear each other at all.
	blocked := func(i, j int) bool {
		return !((i == 2 && j == 3) || (i == 3 && j == 2))
	}
	tab := simulateRound(pos, a, c, offsets, blocked)
	d, w := tab.Distances(c)
	if w[2][3] != 0 {
		t.Errorf("fully-lost link should stay unresolved, got D=%g", d[2][3])
	}
	// All other links resolve.
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if i == 2 && j == 3 {
				continue
			}
			if w[i][j] != 1 {
				t.Errorf("link %d-%d unresolved", i, j)
			}
		}
	}
}

func TestDistancesOneWayRecovery(t *testing.T) {
	pos := layout()
	const c = 1480.0
	p := DefaultParams(len(pos))
	a := protocolTxTimes(p, len(pos))
	offsets := []float64{0.5, -1.25, 3.75, 0.25, -0.125}
	// Message 3→2 lost (device 2 did not hear 3), but 2→3 heard:
	// recovery goes through any helper k with two-way links.
	lost := func(i, j int) bool { return !(i == 2 && j == 3) }
	tab := simulateRound(pos, a, c, offsets, lost)
	d, w := tab.Distances(c)
	if w[2][3] != 1 {
		t.Fatal("one-way link not recovered")
	}
	want := pos[2].Dist(pos[3])
	if math.Abs(d[2][3]-want) > 1e-9 {
		t.Errorf("recovered D = %g, want %g", d[2][3], want)
	}
}

func TestDistancesPropertyRandomGeometry(t *testing.T) {
	const c = 1500.0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(uint(seed)%4)
		pos := make([]geom.Vec3, n)
		for i := range pos {
			pos[i] = geom.Vec3{X: rng.Float64() * 30, Y: rng.Float64() * 30, Z: rng.Float64() * 8}
		}
		p := DefaultParams(n)
		a := protocolTxTimes(p, n)
		offsets := make([]float64, n)
		for i := range offsets {
			offsets[i] = rng.NormFloat64() * 10
		}
		tab := simulateRound(pos, a, c, offsets, func(i, j int) bool { return true })
		d, w := tab.Distances(c)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if w[i][j] != 1 || math.Abs(d[i][j]-pos[i].Dist(pos[j])) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDistancesNegativeRejected(t *testing.T) {
	// A corrupt table that implies a negative distance must not produce
	// a resolved link.
	tab := NewTable(3)
	tab.Observe(0, 0, 0)
	tab.Observe(1, 1, 0)
	tab.Observe(0, 1, -5) // nonsense: arrived before it was sent
	tab.Observe(1, 0, -5)
	_, w := tab.Distances(1500)
	if w[0][1] != 0 {
		t.Error("negative-distance link should be rejected")
	}
}

func TestTableHasObserve(t *testing.T) {
	tab := NewTable(2)
	if tab.Has(0, 1) {
		t.Error("fresh table should be empty")
	}
	tab.Observe(0, 1, 1.5)
	if !tab.Has(0, 1) || tab.T[0][1] != 1.5 {
		t.Error("observation lost")
	}
}
