package main

import (
	"context"
	"fmt"
	"time"

	"uwpos"
)

// solveWorkload runs what a leader device computes on hardware distances:
// uwpos.Localize on a measurement set, then GroupTracker.AddRound on the
// result. It does no acoustic work.
type solveWorkload struct {
	poolSize int
	pool     []solveInput
}

// roundSpacingSec is the session time between two rounds of one group.
const roundSpacingSec = 10

func (w *solveWorkload) setup(ctx context.Context, seed int64) error {
	w.pool = genSolvePool(seed, w.poolSize)
	res, err := uwpos.Localize(ctx, w.pool[0].in)
	if err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	if err := checkPositions(res, len(w.pool[0].truth)); err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	return uwpos.NewGroupTracker(uwpos.TrackerConfig{}).AddRound(0, res)
}

func (w *solveWorkload) close() {}

// measure cycles over the pool until the deadline has passed and the pool
// has run once; each pool entry is one dive group with its own tracker,
// fed one round per pass. The first pass is the scored set and later
// passes must reproduce it bit for bit.
func (w *solveWorkload) measure(ctx context.Context, deadline time.Time, rec *recorder) error {
	trackers := make([]*uwpos.GroupTracker, len(w.pool))
	for k := range trackers {
		trackers[k] = uwpos.NewGroupTracker(uwpos.TrackerConfig{})
	}
	digests := make([]uint64, len(w.pool))
	var err2d, linkErr []float64
	links, linkOK, outliers, caught, falseDrops := 0, 0, 0, 0, 0

	for i := 0; i < len(w.pool) || time.Now().Before(deadline); i++ {
		k, pass := i%len(w.pool), i/len(w.pool)
		si := &w.pool[k]
		op := rec.begin("solve.op", 0, int64(i))
		t := rec.begin("solve."+kindNames[si.kind], op.id, op.op)
		res, err := uwpos.Localize(ctx, si.in)
		rec.end(t)
		if err == nil {
			err = checkPositions(res, len(si.truth))
		}
		if err == nil {
			t = rec.begin("track.add_round", op.id, op.op)
			err = trackers[k].AddRound(float64(pass*roundSpacingSec), res)
			rec.end(t)
		}
		ms := rec.end(op)
		if err != nil {
			rec.attempt(fmt.Errorf("solve %d (%s, N=%d): %w", i, kindNames[si.kind], len(si.truth), err))
			continue
		}
		rec.attempt(nil)
		rec.roundDone(ms, true)

		if pass > 0 {
			if resultDigest(res) != digests[k] {
				rec.fail("determinism: solve %d repeats input %d with a different result", i, k)
			}
			continue
		}
		digests[k] = resultDigest(res)
		err2d = append(err2d, err2D(resultXY(res), si.truth)...)
		n := len(si.truth)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				links++
				if si.in.Weights[a][b] > 0 {
					linkOK++
					diff := si.in.Distances[a][b] - si.truth[a].Dist(si.truth[b])
					if diff < 0 {
						diff = -diff
					}
					linkErr = append(linkErr, diff)
				}
			}
		}
		if si.kind == kindOutlier {
			outliers++
		}
		for _, l := range res.DroppedLinks {
			if si.kind == kindOutlier && l == si.outlier {
				caught++
			} else {
				falseDrops++
			}
		}
	}

	rec.acc["range_err_p50_m"] = median(linkErr)
	rec.acc["loc_err2d_p50_m"] = median(err2d)
	rec.acc["link_ok_frac"] = ratio(float64(linkOK), links)
	rec.counts["solve.outlier_caught_frac"] = ratio(float64(caught), outliers)
	rec.counts["solve.false_drop_per_op"] = ratio(float64(falseDrops), len(w.pool))
	return nil
}
