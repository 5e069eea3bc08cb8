package main

import (
	"context"
	"fmt"
	"time"

	"uwpos"
)

// roundWorkload runs full simulated group rounds back to back through
// uwpos.NewSystem + System.Locate: a closed loop of one caller.
//
// Its round latency is sampled on the dock N=4 rounds only, the
// configuration every serve session uses too: a median over a mix of two
// configurations whose rounds differ twofold in cost would sit on the
// tail of one of them. The boathouse rounds count in rounds_per_s.
type roundWorkload struct {
	poolSize int
	pool     []deployment
}

// latencyConfig is the configuration whose rounds the latency samples.
const latencyConfig = "dock4"

func newSystem(d deployment) (*uwpos.System, error) {
	divers := make([]uwpos.Diver, len(d.divers))
	for i, p := range d.divers {
		divers[i] = uwpos.Diver{Pos: p}
	}
	return uwpos.NewSystem(uwpos.SystemConfig{
		Env:           siteEnv(d.env),
		Divers:        divers,
		Seed:          d.seed,
		OccludedLinks: d.occluded,
	})
}

func (w *roundWorkload) buildSystems() ([]*uwpos.System, error) {
	systems := make([]*uwpos.System, len(w.pool))
	for k, d := range w.pool {
		s, err := newSystem(d)
		if err != nil {
			return nil, fmt.Errorf("deployment %d: %w", k, err)
		}
		systems[k] = s
	}
	return systems, nil
}

func (w *roundWorkload) setup(ctx context.Context, seed int64) error {
	w.pool = genRoundPool(seed, w.poolSize)
	if _, err := w.buildSystems(); err != nil {
		return err
	}
	sys, err := newSystem(warmup)
	if err != nil {
		return err
	}
	out, err := sys.Locate(ctx)
	if err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	return checkRound(out, len(warmup.divers))
}

func (w *roundWorkload) close() {}

func checkRound(out *uwpos.RoundOutcome, n int) error {
	if err := checkPositions(out.Result, n); err != nil {
		return err
	}
	if len(out.Distances) != n || len(out.Weights) != n || len(out.Err2D) != n {
		return fmt.Errorf("round matrices sized %d/%d/%d for %d devices",
			len(out.Distances), len(out.Weights), len(out.Err2D), n)
	}
	return nil
}

// roundScore is what one round contributes to the RNG-determined metrics.
type roundScore struct {
	linkErr       []float64 // |D̂ij − Dij| over measured links
	err2d         []float64 // per-diver 2D error, leader excluded
	links, linkOK int
	dropped       int
	stress        float64
	digest        uint64
}

func scoreRound(out *uwpos.RoundOutcome, d deployment) roundScore {
	n := len(d.divers)
	s := roundScore{err2d: out.Err2D[1:], dropped: len(out.Result.DroppedLinks), stress: out.Result.ResidualStress}
	dg := newDigest()
	dg.add(float64(resultDigest(out.Result)))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.links++
			dg.add(out.Distances[i][j], out.Weights[i][j])
			if out.Weights[i][j] > 0 {
				s.linkOK++
				diff := out.Distances[i][j] - d.divers[i].Dist(d.divers[j])
				if diff < 0 {
					diff = -diff
				}
				s.linkErr = append(s.linkErr, diff)
			}
		}
	}
	dg.add(out.Err2D...)
	s.digest = dg.sum()
	return s
}

// measure cycles over the pool with fresh Systems on every pass, so every
// pass repeats the first exactly. It stops once the deadline has passed
// and the pool has run once; the first pass is the scored set and later
// passes must reproduce it bit for bit.
func (w *roundWorkload) measure(ctx context.Context, deadline time.Time, rec *recorder) error {
	scored := make([]roundScore, len(w.pool))
	var systems []*uwpos.System
	for i := 0; ; i++ {
		k := i % len(w.pool)
		if i >= len(w.pool) && !time.Now().Before(deadline) {
			break
		}
		if k == 0 {
			var err error
			if systems, err = w.buildSystems(); err != nil {
				return err
			}
		}
		d := w.pool[k]
		t := rec.begin("round."+d.label()+".locate", 0, int64(i))
		out, err := systems[k].Locate(ctx)
		ms := rec.end(t)
		if err == nil {
			err = checkRound(out, len(d.divers))
		}
		if err != nil {
			rec.attempt(fmt.Errorf("round %d (%s): %w", i, d.label(), err))
			continue
		}
		rec.attempt(nil)
		rec.roundDone(ms, d.label() == latencyConfig)
		s := scoreRound(out, d)
		if i < len(w.pool) {
			scored[k] = s
		} else if s.digest != scored[k].digest {
			rec.fail("determinism: round %d repeats deployment %d with a different outcome", i, k)
		}
	}

	var linkErr, err2d, stress []float64
	links, linkOK, dropped := 0, 0, 0
	for _, s := range scored {
		linkErr = append(linkErr, s.linkErr...)
		err2d = append(err2d, s.err2d...)
		stress = append(stress, s.stress)
		links += s.links
		linkOK += s.linkOK
		dropped += s.dropped
	}
	rec.acc["range_err_p50_m"] = median(linkErr)
	rec.acc["loc_err2d_p50_m"] = median(err2d)
	rec.acc["link_ok_frac"] = ratio(float64(linkOK), links)
	rec.counts["round.outliers_dropped_per_op"] = ratio(float64(dropped), len(scored))
	rec.counts["round.stress_p50_m"] = median(stress)
	return nil
}
