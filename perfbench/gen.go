package main

import (
	"math"
	"math/rand"

	"uwpos"
	"uwpos/internal/graph"
)

// subRand derives an independent stream for item k of a workload, so that
// every generated input depends on (seed, k) alone and a pool can be
// regenerated, or grown, without disturbing its other items.
func subRand(seed int64, salt, k int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(salt)*10_007 + int64(k)))
}

const (
	saltRound = 1
	saltServe = 2
	saltSolve = 3
)

// deployment is one simulated dive group: the input of a round and of a
// uwposd session.
type deployment struct {
	env      string
	divers   []uwpos.Vec3
	seed     int64
	occluded [][2]int
}

// label names the configuration for per-configuration spans.
func (d deployment) label() string {
	switch {
	case d.env == "dock" && len(d.divers) == 4:
		return "dock4"
	case d.env == "boathouse" && len(d.divers) == 5:
		return "boathouse5"
	}
	return d.env
}

// site extents: a leader-centred disc well inside the preset's horizontal
// extent, depths between 1 m below the surface and 1 m above the bottom.
var siteRadiusM = map[string]float64{"dock": 20, "boathouse": 12}

func siteEnv(name string) *uwpos.Environment {
	env, err := uwpos.EnvironmentByName(name)
	if err != nil {
		panic(err) // names come from siteRadiusM
	}
	return env
}

// genDeployment draws n divers at a site: the leader at the origin, the
// pointed diver 4–9 m away (as in the paper's Monte-Carlo setup), the rest
// anywhere in the site disc, all at least 2 m apart. With occluded set,
// one link other than leader→pointed has its direct path blocked.
func genDeployment(rng *rand.Rand, env string, n int, occluded bool) deployment {
	bottom := siteEnv(env).BottomDepthM
	depth := func() float64 { return 1 + rng.Float64()*(bottom-2) }
	rmax := siteRadiusM[env]
	d := deployment{env: env, seed: 1 + rng.Int63n(1<<40)}
	d.divers = append(d.divers, uwpos.Vec3{Z: depth()})
	for len(d.divers) < n {
		r := 3 + rng.Float64()*(rmax-3)
		if len(d.divers) == 1 {
			r = 4 + 5*rng.Float64()
		}
		a := rng.Float64() * 2 * math.Pi
		p := uwpos.Vec3{X: r * math.Cos(a), Y: r * math.Sin(a), Z: depth()}
		ok := true
		for _, q := range d.divers {
			if p.Dist(q) < 2 {
				ok = false
			}
		}
		if ok {
			d.divers = append(d.divers, p)
		}
	}
	if occluded {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		if a > b {
			a, b = b, a
		}
		if a == 0 && b == 1 {
			b = 2
		}
		d.occluded = [][2]int{{a, b}}
	}
	return d
}

// roundMix is one cycle of the round workload: three dock groups of four,
// one of them with an occluded link, and one boathouse group of five.
var roundMix = []struct {
	env      string
	n        int
	occluded bool
}{{"dock", 4, false}, {"dock", 4, true}, {"dock", 4, false}, {"boathouse", 5, false}}

func genRoundPool(seed int64, size int) []deployment {
	pool := make([]deployment, size)
	for k := range pool {
		m := roundMix[k%len(roundMix)]
		pool[k] = genDeployment(subRand(seed, saltRound, k), m.env, m.n, m.occluded)
	}
	return pool
}

// warmup is the group of a set-up's warm-up round: three divers at the
// dock, the smallest group the API accepts. Its round fills the same
// process-wide caches (matcher templates, FFT plans) as the workload's
// rounds at about half the cost of a four-diver round. It is the same for
// every seed: round costs vary by a quarter between groups, and set-up
// time should not.
var warmup = deployment{
	env:    "dock",
	divers: []uwpos.Vec3{{X: 0, Y: 0, Z: 2}, {X: 6, Y: 1.5, Z: 2.5}, {X: 10, Y: 8, Z: 3.5}},
	seed:   1,
}

// genServeSpec draws the dock N=4 deployment of uwposd session k.
func genServeSpec(seed int64, k int) deployment {
	return genDeployment(subRand(seed, saltServe, k), "dock", 4, false)
}

// Measurement-set kinds of the solve workload.
const (
	kindClean = iota
	kindMissing
	kindOutlier
)

var kindNames = [...]string{"clean", "missing", "outlier"}

// solveInput is one measurement set a leader device would hold after a
// round on real hardware, with its ground truth.
type solveInput struct {
	kind    int
	truth   []uwpos.Vec3
	in      uwpos.Input
	outlier [2]int // the corrupted link when kind == kindOutlier
}

// Error model of the paper's §2.1.5 analysis (uniform 1D ranging error,
// uniform depth error) and the +8 m occlusion outlier of Fig. 19a.
const (
	solveErr1D     = 0.8
	solveErrDepth  = 0.4
	solveOutlierM  = 8
	solveMaxMissed = 2
)

// genSolveInput builds measurement set k: kinds cycle with a fixed share
// (1/8 one outlier link, 2/8 missing links, 5/8 clean) and N cycles over
// 4..8 within each kind, except that missing links use N=5..8: K4 has no
// droppable link that keeps it uniquely realizable.
func genSolveInput(seed int64, k int) solveInput {
	kind, n := kindClean, 4+(k/8)%5
	switch k % 8 {
	case 0:
		kind = kindOutlier
	case 1, 2:
		kind, n = kindMissing, 5+(k/8)%4
	}
	return buildSolveInput(subRand(seed, saltSolve, k), kind, n)
}

// buildSolveInput draws devices in a 60×60×10 m volume (leader centred,
// pointed diver 4–9 m away, as in the paper's §2.1.5 analysis) and the
// measurements of the given kind.
func buildSolveInput(rng *rand.Rand, kind, n int) solveInput {
	si := solveInput{kind: kind}
	uni := func(e float64) float64 { return e * (2*rng.Float64() - 1) }

	si.truth = make([]uwpos.Vec3, n)
	si.truth[0] = uwpos.Vec3{X: 30, Y: 30, Z: rng.Float64() * 10}
	a, r := rng.Float64()*2*math.Pi, 4+5*rng.Float64()
	si.truth[1] = uwpos.Vec3{X: 30 + r*math.Cos(a), Y: 30 + r*math.Sin(a), Z: rng.Float64() * 10}
	for i := 2; i < n; i++ {
		si.truth[i] = uwpos.Vec3{X: rng.Float64() * 60, Y: rng.Float64() * 60, Z: rng.Float64() * 10}
	}

	d := make([][]float64, n)
	w := make([][]float64, n)
	for i := range d {
		d[i], w[i] = make([]float64, n), make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := math.Max(0, si.truth[i].Dist(si.truth[j])+uni(solveErr1D))
			d[i][j], d[j][i] = v, v
			w[i][j], w[j][i] = 1, 1
		}
	}
	notLeaderLink := func() (int, int) {
		for {
			a, b := rng.Intn(n), rng.Intn(n)
			if a > b {
				a, b = b, a
			}
			if a != b && !(a == 0 && b == 1) {
				return a, b
			}
		}
	}
	switch si.kind {
	case kindMissing:
		// Drop links while the graph stays uniquely realizable, as the
		// Fig. 6d sweep does.
		g := graph.Complete(n)
		target := 1 + rng.Intn(solveMaxMissed)
		for tries, dropped := 0, 0; tries < 200 && dropped < target; tries++ {
			a, b := notLeaderLink()
			if !g.HasEdge(a, b) {
				continue
			}
			g.RemoveEdge(a, b)
			if !g.UniquelyRealizable() {
				g.AddEdge(a, b)
				continue
			}
			w[a][b], w[b][a] = 0, 0
			dropped++
		}
	case kindOutlier:
		a, b := notLeaderLink()
		d[a][b] += solveOutlierM
		d[b][a] = d[a][b]
		si.outlier = [2]int{a, b}
	}

	depths := make([]float64, n)
	signs := make([]int, n)
	for i, p := range si.truth {
		depths[i] = math.Max(0, p.Z+uni(solveErrDepth))
	}
	lead := si.truth[1].Sub(si.truth[0]).XY()
	for i := 2; i < n; i++ {
		switch cross := si.truth[i].Sub(si.truth[0]).XY().Cross(lead); {
		case cross > 0:
			signs[i] = 1
		case cross < 0:
			signs[i] = -1
		}
	}
	si.in = uwpos.Input{
		Distances:       d,
		Weights:         w,
		Depths:          depths,
		MicSigns:        signs,
		PointingBearing: lead.Angle(),
	}
	return si
}

func genSolvePool(seed int64, size int) []solveInput {
	pool := make([]solveInput, size)
	for k := range pool {
		pool[k] = genSolveInput(seed, k)
	}
	return pool
}
