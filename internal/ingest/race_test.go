//go:build race

package ingest_test

// raceEnabled reports a -race build, whose sync.Pool drops buffers at
// random.
const raceEnabled = true
