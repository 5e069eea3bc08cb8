package uwpos

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func batchConfig(seed int64) SystemConfig {
	return SystemConfig{
		Env: Dock(),
		Divers: []Diver{
			{Pos: Vec3{X: 0, Y: 0, Z: 2}},
			{Pos: Vec3{X: 6, Y: 1.5, Z: 2.5}},
			{Pos: Vec3{X: 13, Y: -5, Z: 1.5}},
		},
		Seed: seed,
	}
}

func TestLocateNDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full system rounds are expensive")
	}
	run := func(workers int) []BatchOutcome {
		sys, err := NewSystem(batchConfig(9))
		if err != nil {
			t.Fatal(err)
		}
		out, err := sys.LocateN(context.Background(), 3, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(3)
	if len(serial) != 3 || len(parallel) != 3 {
		t.Fatalf("lengths %d/%d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("trial %d error mismatch: %v vs %v", i, a.Err, b.Err)
		}
		if a.Err != nil {
			continue
		}
		for d := range a.Outcome.Result.Positions {
			pa, pb := a.Outcome.Result.Positions[d].Pos, b.Outcome.Result.Positions[d].Pos
			if pa != pb {
				t.Fatalf("trial %d device %d: %v vs %v", i, d, pa, pb)
			}
		}
	}
	// Distinct trials must see distinct simulated rounds.
	if len(serial) > 1 && serial[0].Err == nil && serial[1].Err == nil {
		same := true
		for d := range serial[0].Outcome.Result.Positions {
			if serial[0].Outcome.Result.Positions[d].Pos != serial[1].Outcome.Result.Positions[d].Pos {
				same = false
			}
		}
		if same {
			t.Error("trials 0 and 1 produced identical rounds (seeding broken)")
		}
	}
}

func TestBatchRunsMixedScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full system rounds are expensive")
	}
	scenarios := []SystemConfig{
		batchConfig(3),
		{Env: Dock()}, // invalid: too few divers
		batchConfig(4),
	}
	out, err := Batch(context.Background(), scenarios, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("%d outcomes", len(out))
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Errorf("valid scenarios failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Error("invalid scenario did not surface its error")
	}
	if out[0].Outcome == nil || len(out[0].Outcome.Result.Positions) != 3 {
		t.Error("scenario 0 outcome malformed")
	}
}

func TestBatchEmpty(t *testing.T) {
	if _, err := Batch(context.Background(), nil, BatchOptions{}); err == nil {
		t.Error("empty batch should error")
	}
}

// TestLocateNOnResultStreams: the OnResult callback must observe every
// outcome exactly once, serialized, as rounds complete — and the returned
// slice must be unchanged by the streaming path.
func TestLocateNOnResultStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("full system rounds are expensive")
	}
	sys, err := NewSystem(batchConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	out, err := sys.LocateN(context.Background(), 3, BatchOptions{
		Workers: 3,
		OnResult: func(o BatchOutcome) {
			seen[o.Trial]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || len(seen) != 3 {
		t.Fatalf("returned %d outcomes, callback saw %d trials", len(out), len(seen))
	}
	for trial, n := range seen {
		if n != 1 {
			t.Errorf("trial %d delivered %d times", trial, n)
		}
	}
	// Streamed and collected results are the same trials.
	for i, o := range out {
		if o.Trial != i {
			t.Errorf("slot %d holds trial %d", i, o.Trial)
		}
	}
}

// TestLocateNOnResultMatchesCollected: setting OnResult changes only who
// else sees each outcome — the returned slice is identical with and
// without the callback.
func TestLocateNOnResultMatchesCollected(t *testing.T) {
	if testing.Short() {
		t.Skip("full system rounds are expensive")
	}
	sys, err := NewSystem(batchConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	render := func(out []BatchOutcome) string {
		var b strings.Builder
		for _, o := range out {
			fmt.Fprintf(&b, "trial %d err %v\n", o.Trial, o.Err)
			if o.Outcome != nil {
				r := o.Outcome
				fmt.Fprintf(&b, "%v %v %v %v %v %v %v\n", *r.Result, r.Distances, r.Weights,
					r.LatencySec, r.Err2D, r.Err3D, r.Result.Positions)
			}
		}
		return b.String()
	}
	plain, err := sys.LocateN(context.Background(), 2, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	streamed, err := sys.LocateN(context.Background(), 2, BatchOptions{
		Workers:  2,
		OnResult: func(BatchOutcome) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("OnResult called %d times, want 2", calls)
	}
	if a, b := render(plain), render(streamed); a != b {
		t.Fatalf("OnResult changed the returned outcomes:\nnil:\n%s\nset:\n%s", a, b)
	}
}
