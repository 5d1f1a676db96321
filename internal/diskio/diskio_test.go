package diskio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFullLoopsOverShortWrites(t *testing.T) {
	fs := NewMemFS(FaultSpec{Seed: 1})
	f, err := fs.Create("/j/file")
	if err != nil {
		t.Fatal(err)
	}
	fs.FailNextWrite(3, nil) // short write: 3 bytes land, nil error
	fs.FailNextWrite(1, nil)
	payload := []byte("hello, durable world")
	n, err := WriteFull(f, payload)
	if err != nil || n != len(payload) {
		t.Fatalf("WriteFull = (%d, %v), want (%d, nil)", n, err, len(payload))
	}
	got, _ := fs.ReadFile("/j/file")
	if !bytes.Equal(got, payload) {
		t.Fatalf("file = %q, want %q", got, payload)
	}
	if st := fs.Stats(); st.ShortWrites != 2 {
		t.Fatalf("ShortWrites = %d, want 2", st.ShortWrites)
	}
}

func TestWriteFullReportsTornPrefixOnError(t *testing.T) {
	fs := NewMemFS(FaultSpec{Seed: 1})
	f, _ := fs.Create("/j/file")
	boom := errors.New("boom")
	fs.FailNextWrite(4, boom)
	n, err := WriteFull(f, []byte("0123456789"))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 4 {
		t.Fatalf("n = %d, want 4 (torn prefix must be reported)", n)
	}
	got, _ := fs.ReadFile("/j/file")
	if string(got) != "0123" {
		t.Fatalf("file = %q, want torn prefix %q", got, "0123")
	}
}

func TestWriteFileAtomicSurvivesCrash(t *testing.T) {
	fs := NewMemFS(FaultSpec{Seed: 7})
	if err := WriteFileAtomic(fs, "/d/state", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	got, err := fs.ReadFile("/d/state")
	if err != nil || string(got) != "v1" {
		t.Fatalf("after crash: (%q, %v), want v1", got, err)
	}

	// Replace with v2; a crash after the full atomic sequence keeps v2.
	if err := WriteFileAtomic(fs, "/d/state", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	got, err = fs.ReadFile("/d/state")
	if err != nil || string(got) != "v2" {
		t.Fatalf("after crash: (%q, %v), want v2", got, err)
	}
}

func TestWriteFileAtomicFailedSyncKeepsOldVersion(t *testing.T) {
	fs := NewMemFS(FaultSpec{Seed: 7})
	if err := WriteFileAtomic(fs, "/d/state", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	fs.FailNextSync(errors.New("fsync lost the device"), false)
	if err := WriteFileAtomic(fs, "/d/state", []byte("v2")); err == nil {
		t.Fatal("want error from failed sync")
	}
	// The failed attempt must not leave a temp file, and the old version
	// must survive both live and across a crash.
	if _, err := fs.ReadFile("/d/state.tmp"); !IsNotExist(err) {
		t.Fatalf("temp file should be removed, got err=%v", err)
	}
	fs.Crash()
	got, err := fs.ReadFile("/d/state")
	if err != nil || string(got) != "v1" {
		t.Fatalf("after crash: (%q, %v), want v1", got, err)
	}
}

func TestCrashPreservesSyncedPrefixOnly(t *testing.T) {
	fs := NewMemFS(FaultSpec{Seed: 42, CrashBitFlipProb: 0.5})
	fs.MkdirAll("/j")
	f, _ := fs.Create("/j/log")
	fs.SyncDir("/j")
	stable := []byte("stable-prefix-")
	if _, err := WriteFull(f, stable); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFull(f, bytes.Repeat([]byte{0xAA}, 64)); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	got, err := fs.ReadFile("/j/log")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < len(stable) || !bytes.Equal(got[:len(stable)], stable) {
		t.Fatalf("synced prefix damaged: %q", got)
	}
	if len(got) > len(stable)+64 {
		t.Fatalf("file grew across crash: %d bytes", len(got))
	}
}

func TestLyingSyncExposedByCrash(t *testing.T) {
	fs := NewMemFS(FaultSpec{Seed: 3})
	fs.MkdirAll("/j")
	f, _ := fs.Create("/j/log")
	fs.SyncDir("/j")
	WriteFull(f, []byte("data"))
	fs.FailNextSync(nil, true) // lies: returns nil, nothing durable
	if err := f.Sync(); err != nil {
		t.Fatalf("lying sync must return nil, got %v", err)
	}
	if fs.DurableLen("/j/log") != 0 {
		t.Fatalf("DurableLen = %d, want 0 after lying sync", fs.DurableLen("/j/log"))
	}
	if st := fs.Stats(); st.SyncLies != 1 {
		t.Fatalf("SyncLies = %d, want 1", st.SyncLies)
	}
}

func TestUnsyncedRenameRevertsAtCrash(t *testing.T) {
	fs := NewMemFS(FaultSpec{Seed: 5})
	fs.MkdirAll("/d")
	f, _ := fs.Create("/d/a")
	WriteFull(f, []byte("A"))
	f.Sync()
	fs.SyncDir("/d")
	// Rename without SyncDir: the entry move is volatile.
	if err := fs.Rename("/d/a", "/d/b"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if _, err := fs.ReadFile("/d/b"); !IsNotExist(err) {
		t.Fatalf("unsynced rename survived crash: err=%v", err)
	}
	if got, err := fs.ReadFile("/d/a"); err != nil || string(got) != "A" {
		t.Fatalf("original entry lost: (%q, %v)", got, err)
	}
}

func TestInjectedWriteFaultsAreSeedDeterministic(t *testing.T) {
	run := func() (MemStats, []byte) {
		fs := NewMemFS(FaultSpec{Seed: 99, ShortWriteProb: 0.3, TornWriteProb: 0.2, NoSpaceProb: 0.1})
		f, _ := fs.Create("/x")
		for i := 0; i < 50; i++ {
			WriteFull(f, bytes.Repeat([]byte{byte(i)}, 16))
		}
		data, _ := fs.ReadFile("/x")
		return fs.Stats(), data
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || !bytes.Equal(d1, d2) {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
	if s1.ShortWrites == 0 || s1.TornWrites == 0 || s1.NoSpace == 0 {
		t.Fatalf("expected every fault class to fire: %+v", s1)
	}
}

func TestWipeUnsyncedTruncatesToMark(t *testing.T) {
	dir := t.TempDir()
	osfs := OSFS{}
	log := filepath.Join(dir, "journal.log")
	if err := os.WriteFile(log, []byte("synced-part|unsynced-tail"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteSyncedMark(osfs, log, int64(len("synced-part"))); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "ckpt-0001.ckpt.tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	atomic := filepath.Join(dir, "seed.json")
	if err := WriteFileAtomic(osfs, atomic, []byte(`{"rows":8}`)); err != nil {
		t.Fatal(err)
	}

	rep, err := WipeUnsynced(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(log); string(got) != "synced-part" {
		t.Fatalf("journal = %q, want synced prefix only", got)
	}
	if rep.Truncated[log] != int64(len("|unsynced-tail")) {
		t.Fatalf("Truncated = %v", rep.Truncated)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp file survived wipe: %v", err)
	}
	if got, _ := os.ReadFile(atomic); string(got) != `{"rows":8}` {
		t.Fatalf("atomic file damaged: %q", got)
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	osfs := OSFS{}
	sub := filepath.Join(dir, "a", "b")
	if err := osfs.MkdirAll(sub); err != nil {
		t.Fatal(err)
	}
	f, err := osfs.OpenAppend(filepath.Join(sub, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFull(f, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := osfs.ReadFile(filepath.Join(sub, "x"))
	if err != nil || string(got) != "o" {
		t.Fatalf("ReadFile = (%q, %v)", got, err)
	}
	names, err := osfs.ReadDir(sub)
	if err != nil || len(names) != 1 || names[0] != "x" {
		t.Fatalf("ReadDir = (%v, %v)", names, err)
	}
	if names, err := osfs.ReadDir(filepath.Join(dir, "missing")); err != nil || names != nil {
		t.Fatalf("missing dir: (%v, %v)", names, err)
	}
}

// TestMemHandleUnusableAfterClose pins the os.File-matching close
// semantics: every operation on a closed handle reports fs.ErrClosed
// (os.ErrClosed aliases it), so use-after-close bugs — e.g. syncing a
// rotated-away journal file — surface in fault-injection tests exactly as
// they would on OSFS.
func TestMemHandleUnusableAfterClose(t *testing.T) {
	fs := NewMemFS(FaultSpec{Seed: 1})
	f, err := fs.Create("/j/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFull(f, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if _, err := f.Write([]byte("z")); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Write after Close: %v, want ErrClosed", err)
	}
	if err := f.Sync(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Sync after Close: %v, want ErrClosed", err)
	}
	if err := f.Truncate(0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Truncate after Close: %v, want ErrClosed", err)
	}
	if err := f.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
	// Nothing leaked through: contents and watermark are as before Close.
	data, durable, err := fs.SnapshotFile("/j/file")
	if err != nil || string(data) != "abc" || durable != 3 {
		t.Fatalf("file = (%q, %d, %v), want (abc, 3, nil)", data, durable, err)
	}
}
