// Package engine is the deterministic worker-pool trial runner every
// Monte-Carlo evaluation in this repository is built on. A run fans N
// independent trials across a bounded set of workers and hands each result
// to a sink: Stream in completion order, EachRange in trial order, so an
// order-sensitive caller sees exactly what a serial loop would have
// produced, only faster.
//
// # Seeding contract
//
// Determinism across worker counts is the engine's core guarantee and
// rests on one rule: trial t of a run configured with seed S computes with
// its own *rand.Rand built as
//
//	rand.New(rand.NewSource(TrialSeed(S, t)))
//
// and must not touch any other source of randomness. TrialSeed mixes S and
// t through a SplitMix64 finalizer, so per-trial streams are decorrelated
// even for adjacent seeds and adjacent trial indices. Because the stream
// is a pure function of (S, t) — never of goroutine identity, scheduling
// order or worker count — a run with 1 worker and a run with 8 workers
// yield bit-identical results, and any single trial can be replayed in
// isolation for debugging.
//
// Trial functions receive their rng as an argument; anything they need to
// randomize (scenario draws, channel noise, sensor noise) must be driven
// by it, typically by threading it into sim.Config.Rng.
package engine

import "math/rand"

// Config tunes a run.
type Config struct {
	// Seed is the run's master seed; per-trial seeds derive from it via
	// TrialSeed. A zero seed is used as-is (callers normalize if they
	// want 0 to mean "default").
	Seed int64
	// Workers bounds concurrent trials. Zero or negative means
	// runtime.GOMAXPROCS(0).
	Workers int
}

// TrialSeed derives the RNG seed for one trial from the run seed: a
// SplitMix64 finalizer over seed + trialIndex. It is exported so callers
// can replay a single trial outside the engine, or derive decorrelated
// secondary streams (e.g. seed^salt) for post-processing randomness.
//
// The trial index is widened with explicit 64-bit arithmetic: shard
// fan-out replays trials on whatever host picked up the shard, so the
// seed stream must not depend on the platform word size (uint is 32 bits
// on 32-bit hosts, which would wrap trial+1 differently). Values are
// unchanged on 64-bit hosts, so pre-existing goldens still hold; see the
// pinned vector in TestTrialSeedPinned.
func TrialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(int64(trial))+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Rand builds the canonical per-trial RNG for (seed, trial).
func Rand(seed int64, trial int) *rand.Rand {
	return rand.New(rand.NewSource(TrialSeed(seed, trial)))
}
