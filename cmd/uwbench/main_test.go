package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// stripTimings removes the wall-clock suffix from "(id in 1.2s)" lines so
// outputs compare across runs, the same normalization the CI smoke uses.
var timingRe = regexp.MustCompile(` in [0-9.]+s\)`)

func stripTimings(s string) string { return timingRe.ReplaceAllString(s, ")") }

// TestProfileWrittenOnFailurePath: the CPU profile must be flushed and the
// file closed even when the run fails. The old main called os.Exit from
// inside the function that owned the deferred StopCPUProfile, so every
// error path (and every successful -out path) left a truncated, unreadable
// profile.
func TestProfileWrittenOnFailurePath(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-cpuprofile", prof, "-experiment", "no-such-experiment"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(prof)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	// A flushed pprof profile is a gzip stream; a skipped StopCPUProfile
	// leaves an empty or headerless file.
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("profile is not a flushed gzip stream (%d bytes, header % x)", len(raw), raw[:min(2, len(raw))])
	}
}

func TestParseExperimentIDs(t *testing.T) {
	cases := []struct {
		in      string
		want    []string
		wantErr string
	}{
		{in: "fig06a", want: []string{"fig06a"}},
		{in: "fig06a,battery", want: []string{"fig06a", "battery"}},
		{in: "fig06a,,battery", want: []string{"fig06a", "battery"}}, // empty entry skipped
		{in: "fig06a,battery,", want: []string{"fig06a", "battery"}}, // trailing comma skipped
		{in: " fig06a , battery ", want: []string{"fig06a", "battery"}},
		{in: "fig06a,battery,fig06a", wantErr: "more than once"},
		{in: ",,,", wantErr: "names no experiments"},
		{in: "", wantErr: "names no experiments"},
	}
	for _, c := range cases {
		got, err := parseExperimentIDs(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseExperimentIDs(%q) err = %v, want substring %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseExperimentIDs(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseExperimentIDs(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if ids, err := parseExperimentIDs("all"); err != nil || len(ids) != len(order) {
		t.Errorf(`parseExperimentIDs("all") = %d ids, %v; want the full order (%d)`, len(ids), err, len(order))
	}
}

func TestParseShard(t *testing.T) {
	spec, err := parseShard("2/4")
	if err != nil || spec.Index != 2 || spec.Count != 4 {
		t.Errorf("parseShard(2/4) = %+v, %v", spec, err)
	}
	for _, bad := range []string{"", "3", "a/4", "1/b", "4/4", "-1/4", "0/0"} {
		if _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) accepted", bad)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "fig06a,bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "bogus"`) {
		t.Errorf("stderr = %q, want unknown-experiment message", stderr.String())
	}
}

// TestOrderCoversRunnableIDs: "all" and the printing order reach every
// experiment -experiment accepts except the wall-clock service load test,
// and name nothing it rejects.
func TestOrderCoversRunnableIDs(t *testing.T) {
	inOrder := make(map[string]bool)
	for _, id := range order {
		if !runnable(id) {
			t.Errorf("order lists %q, which -experiment rejects", id)
		}
		inOrder[id] = true
	}
	for _, id := range runnableIDs() {
		if !inOrder[id] && id != "service" {
			t.Errorf("runnable experiment %q is missing from order", id)
		}
	}
	if inOrder["service"] {
		t.Error("service must stay out of the deterministic order")
	}
}

// TestShardMergeMatchesFullRun drives the real CLI surface in-process:
// two shards at different worker counts, emitted to disk, merged — the
// merged tables must be byte-identical to the single-process run.
func TestShardMergeMatchesFullRun(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-experiment", "fig06a,fig13b", "-seed", "5", "-samples", "8"}

	var full, mergeOut, stderr bytes.Buffer
	if code := run(append([]string{"-workers", "1"}, base...), &full, &stderr); code != 0 {
		t.Fatalf("full run: exit %d, stderr: %s", code, stderr.String())
	}

	paths := make([]string, 2)
	for s := 0; s < 2; s++ {
		paths[s] = filepath.Join(dir, "shard_"+string(rune('0'+s))+".json")
		args := append([]string{"-workers", string(rune('0' + s*3 + 1)), "-shard", string(rune('0'+s)) + "/2", "-out", paths[s]}, base...)
		var out bytes.Buffer
		stderr.Reset()
		if code := run(args, &out, &stderr); code != 0 {
			t.Fatalf("shard %d: exit %d, stderr: %s", s, code, stderr.String())
		}
		if out.Len() != 0 {
			t.Errorf("shard %d wrote tables to stdout: %q", s, out.String())
		}
	}

	recordPath := filepath.Join(dir, "merged.json")
	stderr.Reset()
	if code := run([]string{"-merge", strings.Join(paths, ","), "-out", recordPath}, &mergeOut, &stderr); code != 0 {
		t.Fatalf("merge: exit %d, stderr: %s", code, stderr.String())
	}
	if got, want := stripTimings(mergeOut.String()), stripTimings(full.String()); got != want {
		t.Errorf("merged output differs from full run\n got: %s\nwant: %s", got, want)
	}

	raw, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatalf("merge -out: %v", err)
	}
	var record benchFile
	if err := json.Unmarshal(raw, &record); err != nil {
		t.Fatalf("merge -out parse: %v", err)
	}
	if len(record.Experiments) != 2 || record.Experiments[0].ID != "fig06a" || record.Seed != 5 {
		t.Errorf("merge record unexpected: seed=%d ids=%v", record.Seed, record.Experiments)
	}
}

// TestMergeRejectsMismatchedShards: shards from different sweeps (wrong
// seed, missing index, duplicate index) must be refused, not silently
// folded into a wrong table.
func TestMergeRejectsMismatchedShards(t *testing.T) {
	dir := t.TempDir()
	emit := func(name string, seed string, spec string) string {
		path := filepath.Join(dir, name)
		var out, stderr bytes.Buffer
		args := []string{"-experiment", "fig13b", "-seed", seed, "-samples", "4", "-shard", spec, "-out", path}
		if code := run(args, &out, &stderr); code != 0 {
			t.Fatalf("emit %s: exit %d, stderr: %s", name, code, stderr.String())
		}
		return path
	}
	s0 := emit("s0.json", "5", "0/2")
	s1 := emit("s1.json", "5", "1/2")
	s1badSeed := emit("s1_seed.json", "6", "1/2")

	cases := []struct{ name, files, wantErr string }{
		{"seed mismatch", s0 + "," + s1badSeed, "workload flags"},
		{"missing shard", s0, "2 but 1 files"},
		{"duplicate index", s0 + "," + s0, "exactly once"},
		{"ok", s0 + "," + s1, ""},
	}
	for _, c := range cases {
		var out, stderr bytes.Buffer
		code := run([]string{"-merge", c.files}, &out, &stderr)
		if c.wantErr == "" {
			if code != 0 {
				t.Errorf("%s: exit %d, stderr: %s", c.name, code, stderr.String())
			}
			continue
		}
		if code == 0 || !strings.Contains(stderr.String(), c.wantErr) {
			t.Errorf("%s: exit %d, stderr %q; want failure mentioning %q", c.name, code, stderr.String(), c.wantErr)
		}
	}
}

// TestResumeRejectsMismatchedCheckpoint: a checkpoint recorded under
// different workload flags must not be silently replayed.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	blob, _ := json.Marshal(checkpointFile{Schema: 1, Seed: 99, Samples: 8})
	if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, stderr bytes.Buffer
	code := run([]string{"-experiment", "fig13b", "-seed", "5", "-samples", "8", "-checkpoint", ckpt, "-resume"}, &out, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "flags differ") {
		t.Errorf("exit %d, stderr %q; want 2 with flag-mismatch message", code, stderr.String())
	}
	// A missing checkpoint is not an error: -resume is an idempotent
	// relaunch wrapper, the first launch simply starts from scratch.
	out.Reset()
	stderr.Reset()
	code = run([]string{"-experiment", "fig13b", "-seed", "5", "-samples", "4", "-checkpoint", filepath.Join(dir, "absent.ckpt"), "-resume"}, &out, &stderr)
	if code != 0 {
		t.Errorf("fresh -resume run: exit %d, stderr: %s", code, stderr.String())
	}
}

// TestCheckpointedRunMatchesPlainRun: enabling checkpointing must not
// change the printed tables, and a completed run must clear its
// checkpoint so a later -resume starts fresh.
func TestCheckpointedRunMatchesPlainRun(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	base := []string{"-experiment", "fig06a,battery", "-seed", "7", "-samples", "8"}

	var plain, ckRun, stderr bytes.Buffer
	if code := run(base, &plain, &stderr); code != 0 {
		t.Fatalf("plain: exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run(append([]string{"-checkpoint", ckpt, "-checkpoint-every", "8"}, base...), &ckRun, &stderr); code != 0 {
		t.Fatalf("checkpointed: exit %d, stderr: %s", code, stderr.String())
	}
	if got, want := stripTimings(ckRun.String()), stripTimings(plain.String()); got != want {
		t.Errorf("checkpointed run output differs from plain run\n got: %s\nwant: %s", got, want)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint %s survived a successful run (err=%v)", ckpt, err)
	}
}
