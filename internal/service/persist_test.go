package service

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"uwpos/internal/faultinject"
)

func testSnapshot() *sessionSnapshot {
	return &sessionSnapshot{
		ID: "s-3",
		Spec: SessionSpec{
			Env:    "pool",
			Divers: []DiverSpec{{X: 0, Y: 0, Z: 1.5}, {X: 5, Y: 1, Z: 2}, {X: 8, Y: -3, Z: 1}},
			Seed:   5,
		},
		Seed:     5,
		RNGDraws: 0,
		Rounds:   2,
		Degraded: 1,
		Clock:    10,
		HasFix:   true,
		Tracker:  []byte{1, 2, 3},
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	sn := testSnapshot()
	blob, err := sn.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != sn.ID || got.Seed != sn.Seed || got.RNGDraws != sn.RNGDraws ||
		got.Rounds != sn.Rounds || got.Degraded != sn.Degraded ||
		got.Clock != sn.Clock || got.HasFix != sn.HasFix {
		t.Fatalf("round trip changed fields: %+v vs %+v", got, sn)
	}
	if string(got.Tracker) != string(sn.Tracker) {
		t.Fatalf("tracker blob changed: %v", got.Tracker)
	}
	if got.Spec.Env != "pool" || len(got.Spec.Divers) != 3 || got.Spec.Seed != 5 {
		t.Fatalf("spec changed: %+v", got.Spec)
	}
	// Re-encoding is byte-identical: the format is canonical.
	blob2, err := got.encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("re-encode differs")
	}
}

func TestSnapshotCodecRejectsCorruption(t *testing.T) {
	blob, err := testSnapshot().encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), blob[4:]...),
		"truncated": blob[:len(blob)-5],
		"trailing":  append(append([]byte{}, blob...), 0),
	}
	// Any single flipped byte must fail the checksum.
	for _, i := range []int{4, 10, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte{}, blob...)
		bad[i] ^= 0x40
		cases["flip@"+string(rune('0'+i%10))] = bad
	}
	for name, data := range cases {
		if _, err := decodeSnapshot(data); err == nil {
			t.Errorf("%s: corrupt snapshot decoded", name)
		}
	}
}

func TestStoreSaveLoadDelete(t *testing.T) {
	st, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("s-1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("s-1", []byte("hello2")); err != nil {
		t.Fatal(err) // overwrite is fine
	}
	if err := st.Save("s-2", []byte("other")); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "s-1" || ids[1] != "s-2" {
		t.Fatalf("list %v", ids)
	}
	b, err := st.Load("s-1")
	if err != nil || string(b) != "hello2" {
		t.Fatalf("load %q %v", b, err)
	}
	if err := st.Delete("s-1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("s-1"); err != nil {
		t.Fatal("deleting a missing snapshot must be a no-op, got", err)
	}
	if ids, _ = st.List(); len(ids) != 1 {
		t.Fatalf("after delete: %v", ids)
	}
	// Quarantine moves the file out of the listing but keeps the bytes.
	if err := st.Quarantine("s-2"); err != nil {
		t.Fatal(err)
	}
	if ids, _ = st.List(); len(ids) != 0 {
		t.Fatalf("after quarantine: %v", ids)
	}
	qb, err := os.ReadFile(filepath.Join(st.dir, quarantineDir, "s-2"+snapExt))
	if err != nil || string(qb) != "other" {
		t.Fatalf("quarantined bytes %q %v", qb, err)
	}
}

func TestStoreInjectedWriteFault(t *testing.T) {
	inj := faultinject.New(faultinject.Config{})
	st, err := OpenStore(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailNextWrite()
	if err := st.Save("s-1", []byte("x")); err == nil {
		t.Fatal("armed write fault did not surface")
	}
	if ids, _ := st.List(); len(ids) != 0 {
		t.Fatal("failed save left a file")
	}
	if err := st.Save("s-1", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreOnBoot drives the whole boot path without running rounds: a
// valid zero-draw snapshot restores; garbage, an ID mismatch and a
// corrupt tracker blob each quarantine; and new session IDs never
// collide with anything seen on disk.
func TestRestoreOnBoot(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := testSnapshot() // ID s-3
	good.Tracker = nil     // no tracker state: session had no solved rounds
	goodBlob, err := good.encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("s-3", goodBlob); err != nil {
		t.Fatal(err)
	}
	// Codec-valid snapshot whose tracker blob is garbage: restore fails.
	badTracker := testSnapshot()
	badTracker.ID = "s-5"
	badTrackerBlob, err := badTracker.encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("s-5", badTrackerBlob); err != nil {
		t.Fatal(err)
	}
	// Valid bytes under the wrong name: identity mismatch.
	if err := st.Save("s-7", goodBlob); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("s-9", []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(context.Background(), Config{SessionTTL: -1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stz := srv.Stats()
	if stz.Sessions.Restored != 1 || stz.Sessions.Active != 1 {
		t.Fatalf("restored %d active %d, want 1/1", stz.Sessions.Restored, stz.Sessions.Active)
	}
	if stz.Persistence == nil || stz.Persistence.Quarantined != 3 {
		t.Fatalf("persistence counters %+v", stz.Persistence)
	}
	sess, err := srv.Session("s-3")
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	if sess.rounds != 2 || sess.degraded != 1 || sess.clock != 10 || !sess.hasFix {
		t.Errorf("restored counters: rounds=%d degraded=%d clock=%g hasFix=%v",
			sess.rounds, sess.degraded, sess.clock, sess.hasFix)
	}
	sess.mu.Unlock()

	// IDs seen on disk — restored AND quarantined — are burned.
	created, err := srv.CreateSession(good.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if created.ID != "s-10" {
		t.Errorf("new session ID %s, want s-10 (past quarantined s-9)", created.ID)
	}

	// Deleting the restored session removes its snapshot file.
	if err := srv.DeleteSession("s-3"); err != nil {
		t.Fatal(err)
	}
	for _, id := range listOrEmpty(t, srv.store) {
		if id == "s-3" {
			t.Error("snapshot file survived session delete")
		}
	}
}

func listOrEmpty(t *testing.T, st *Store) []string {
	t.Helper()
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	return ids
}
