package durable

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hermes/internal/diskio"
)

type payload struct {
	Seq  uint64
	Keys map[uint64][]byte
}

func pl(seq uint64) *payload {
	return &payload{Seq: seq, Keys: map[uint64][]byte{seq: {byte(seq), 2, 3}}}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 1})
	s, err := Open("/cp", fs)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if _, ok, err := s.Load(&got); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if err := s.Save(7, pl(7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(12, pl(12)); err != nil {
		t.Fatal(err)
	}
	id, ok, err := s.Load(&got)
	if err != nil || !ok || id != 12 {
		t.Fatalf("Load = (%d, %v, %v), want (12, true, nil)", id, ok, err)
	}
	if !reflect.DeepEqual(&got, pl(12)) {
		t.Fatalf("payload = %+v", got)
	}
}

func TestStoreSurvivesCrashMidSave(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 2})
	s, _ := Open("/cp", fs)
	if err := s.Save(5, pl(5)); err != nil {
		t.Fatal(err)
	}
	// Next save dies at the checkpoint-file fsync; crash; reopen.
	fs.FailNextSync(errors.New("device detached"), false)
	if err := s.Save(9, pl(9)); err == nil {
		t.Fatal("want save error")
	}
	fs.Crash()
	s2, _ := Open("/cp", fs)
	var got payload
	id, ok, err := s2.Load(&got)
	if err != nil || !ok || id != 5 {
		t.Fatalf("Load after crash = (%d, %v, %v), want (5, true, nil)", id, ok, err)
	}
	if !reflect.DeepEqual(&got, pl(5)) {
		t.Fatalf("payload = %+v", got)
	}
}

// TestStoreSkipsRottedNewestCheckpoint: when the newest checkpoint file no
// longer verifies, Load skips it, counts it, and takes the next newest.
func TestStoreSkipsRottedNewestCheckpoint(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 3})
	s, _ := Open("/cp", fs)
	if err := s.Save(3, pl(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(8, pl(8)); err != nil {
		t.Fatal(err)
	}
	// Rot the newest checkpoint in place.
	cur := filepath.Join("/cp", ckptName(8))
	raw, _ := fs.ReadFile(cur)
	raw[len(raw)-1] ^= 0xFF
	fs.Install(cur, raw, len(raw))

	var got payload
	id, ok, err := s.Load(&got)
	if err != nil || !ok || id != 3 {
		t.Fatalf("Load = (%d, %v, %v), want fallback to 3", id, ok, err)
	}
	st := s.Stats()
	if st.CorruptSkipped < 1 {
		t.Fatalf("stats = %+v, want the rotted file counted", st)
	}
}

func TestStorePrunesOldCheckpoints(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 4})
	s, _ := Open("/cp", fs)
	for id := uint64(1); id <= 5; id++ {
		if err := s.Save(id, pl(id)); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := fs.ReadDir("/cp")
	ckpts := 0
	for _, n := range names {
		if filepath.Ext(n) == ckptSuffix {
			ckpts++
		}
	}
	if ckpts != keepCheckpoints {
		t.Fatalf("%d checkpoint files remain, want %d (got %v)", ckpts, keepCheckpoints, names)
	}
	if st := s.Stats(); st.Pruned != 3 {
		t.Fatalf("Pruned = %d, want 3", st.Pruned)
	}
	var got payload
	if id, ok, _ := s.Load(&got); !ok || id != 5 {
		t.Fatalf("Load = (%d, %v)", id, ok)
	}
}

func TestStoreOnRealFilesystem(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(42, pl(42)); err != nil {
		t.Fatal(err)
	}
	var got payload
	id, ok, err := s.Load(&got)
	if err != nil || !ok || id != 42 {
		t.Fatalf("Load = (%d, %v, %v)", id, ok, err)
	}
	if st := s.Stats(); st.LastSaveNanos <= 0 {
		t.Fatalf("LastSaveNanos = %d", st.LastSaveNanos)
	}
}

// TestOpenSweepsStaleTempFiles: a save that crashes between writing its
// temp file and renaming it leaves ckpt-*.ckpt.tmp behind; Load and prune
// filter on the .ckpt suffix, so Open must sweep the orphans or they
// accumulate forever on real deployments.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 1})
	s, err := Open("/cp", fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(7, pl(7)); err != nil {
		t.Fatal(err)
	}
	// Residue of a save that died before its rename.
	stale := filepath.Join("/cp", ckptName(9)+".tmp")
	if err := fs.WriteFile(stale, []byte("partial checkpoint")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open("/cp", fs)
	if err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("/cp")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("stale temp file %s survived Open", n)
		}
	}
	// The real checkpoint is untouched.
	var got payload
	if id, ok, err := s2.Load(&got); err != nil || !ok || id != 7 {
		t.Fatalf("Load = (%d, %v, %v), want (7, true, nil)", id, ok, err)
	}
	if !reflect.DeepEqual(&got, pl(7)) {
		t.Fatalf("payload = %+v", got)
	}
}
