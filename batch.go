package uwpos

import (
	"context"
	"math/rand"

	"uwpos/internal/engine"
)

// BatchOutcome is one trial of a concurrent localization batch.
type BatchOutcome struct {
	// Trial is the trial index (LocateN) or scenario index (Batch).
	Trial int
	// Outcome is the round result; nil when Err is set.
	Outcome *RoundOutcome
	// Err reports a failed build or round.
	Err error
}

// BatchOptions tunes concurrent execution.
type BatchOptions struct {
	// Workers bounds concurrent rounds (0 = GOMAXPROCS). Results are
	// identical for every worker count.
	Workers int
	// OnResult, when non-nil, receives each outcome as soon as its round
	// completes — in completion order, which is arbitrary under
	// parallelism (Outcome.Trial identifies the trial). Calls are
	// serialized on the caller's goroutine, so the callback needs no
	// locking; it should not block for long, as it stalls result
	// delivery. The returned slice is unchanged; streaming consumers
	// (live dashboards, online aggregation over huge batches) read from
	// the callback and may ignore the slice.
	OnResult func(BatchOutcome)
}

// runBatch fans trials across the engine, filling the result slice in
// trial order and streaming outcomes to OnResult when set. Trials a
// cancellation kept from running hold the zero BatchOutcome.
func runBatch(ctx context.Context, cfg engine.Config, n int, opt BatchOptions, fn func(trial int, rng *rand.Rand) BatchOutcome) ([]BatchOutcome, error) {
	out := make([]BatchOutcome, n)
	err := engine.Stream(ctx, cfg, n, fn, func(trial int, r BatchOutcome) {
		out[trial] = r
		if opt.OnResult != nil {
			opt.OnResult(r)
		}
	})
	return out, err
}

// LocateN runs n independent rounds of this system's configuration
// concurrently and returns the outcomes in trial order.
//
// Each trial re-instantiates the deployment with a private RNG derived
// from the system seed and the trial index (internal/engine's seeding
// contract), so trial t observes the same simulated round whether the
// batch runs on one worker or sixty-four — and the same round it would
// observe in any other batch sized past t with the same seed. This is the
// bulk-evaluation entry point: CDFs over round realizations, soak runs,
// regression sweeps.
func (s *System) LocateN(ctx context.Context, n int, opt BatchOptions) ([]BatchOutcome, error) {
	cfg := engine.Config{Seed: s.cfg.Seed, Workers: opt.Workers}
	return runBatch(ctx, cfg, n, opt, func(trial int, _ *rand.Rand) BatchOutcome {
		trialCfg := s.cfg
		trialCfg.Seed = engine.TrialSeed(s.cfg.Seed, trial)
		sys, err := NewSystem(trialCfg)
		if err != nil {
			return BatchOutcome{Trial: trial, Err: err}
		}
		out, err := sys.Locate(ctx)
		return BatchOutcome{Trial: trial, Outcome: out, Err: err}
	})
}

// Batch builds and runs one round of every scenario concurrently,
// returning outcomes in input order. Scenarios are independent: each uses
// its own seed (defaulted like NewSystem) and nothing is shared between
// trials, so any mix of environments, group sizes and fault patterns can
// run in one call.
func Batch(ctx context.Context, scenarios []SystemConfig, opt BatchOptions) ([]BatchOutcome, error) {
	if len(scenarios) == 0 {
		return nil, ConfigError{Field: "Scenarios", Reason: "empty batch"}
	}
	cfg := engine.Config{Workers: opt.Workers}
	return runBatch(ctx, cfg, len(scenarios), opt, func(i int, _ *rand.Rand) BatchOutcome {
		sys, err := NewSystem(scenarios[i])
		if err != nil {
			return BatchOutcome{Trial: i, Err: err}
		}
		out, err := sys.Locate(ctx)
		return BatchOutcome{Trial: i, Outcome: out, Err: err}
	})
}
