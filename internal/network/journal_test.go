package network

import (
	"errors"
	"fmt"
	"math/bits"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"hermes/internal/codec"
	"hermes/internal/diskio"
	"hermes/internal/tx"
)

func jmsg(i int) Message {
	return Message{
		From: 1, To: 0, Type: MsgRecordPush,
		Txn: tx.TxnID(100 + i), Seq: uint64(i),
		Link: uint64(i + 1), Inc: 1,
		Payload: []byte(fmt.Sprintf("payload-%02d", i)),
	}
}

func sameMsgs(t *testing.T, got, want []Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("message %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalRoundTripOSFS(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournalWith(dir, JournalOpts{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	var want []Message
	for i := 0; i < 5; i++ {
		m := jmsg(i)
		j.Append(m)
		want = append(want, m)
	}
	if j.Incarnation() != 1 {
		t.Fatalf("incarnation = %d, want 1", j.Incarnation())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournalWith(dir, JournalOpts{Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sameMsgs(t, j2.Recovered(), want)
	if j2.Incarnation() != 2 {
		t.Fatalf("incarnation = %d, want 2", j2.Incarnation())
	}
	if j2.Count() != 5 || j2.Base() != 0 {
		t.Fatalf("count/base = %d/%d, want 5/0", j2.Count(), j2.Base())
	}
	fl := j2.Floors()
	if fl[1] != (LinkFloor{Inc: 1, Link: 5}) {
		t.Fatalf("floor = %+v, want {1 5}", fl[1])
	}
}

// TestJournalTornTailEveryOffset truncates the journal at every byte offset
// inside the final frame — including inside the 4-byte length prefix and the
// 4-byte CRC — and asserts recovery keeps exactly the intact prefix with no
// quarantine: a torn tail is crash residue of an unacked frame.
func TestJournalTornTailEveryOffset(t *testing.T) {
	build := diskio.NewMemFS(diskio.FaultSpec{Seed: 1})
	j, err := OpenJournalWith("/n0", JournalOpts{FS: build, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var want []Message
	for i := 0; i < 3; i++ {
		m := jmsg(i)
		j.Append(m)
		want = append(want, m)
	}
	j.Close()
	path := filepath.Join("/n0", journalFile)
	raw, err := build.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the start of the final frame.
	rep := replayJournal(raw)
	if len(rep.msgs) != 3 || rep.good != len(raw) {
		t.Fatalf("setup journal not clean: %d msgs, good %d of %d", len(rep.msgs), rep.good, len(raw))
	}
	lastStart := journalHdrLen
	for i := 0; i < 2; i++ {
		n := int(raw[lastStart+2])<<8 | int(raw[lastStart+3])
		lastStart += frameHdrLen + n
	}
	for cut := lastStart; cut < len(raw); cut++ {
		fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 2})
		fs.Install(path, raw[:cut], cut)
		jr, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		sameMsgs(t, jr.Recovered(), want[:2])
		st := jr.Stats()
		if st.Corrupt != 0 {
			t.Fatalf("cut %d: torn tail misclassified as corruption", cut)
		}
		if cut > lastStart && st.TornRecords != 1 {
			t.Fatalf("cut %d: TornRecords = %d, want 1", cut, st.TornRecords)
		}
		// The torn tail must be gone on disk: a fresh append then reopen
		// yields exactly prefix + new frame.
		extra := jmsg(9)
		jr.Append(extra)
		jr.Close()
		jr2, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		sameMsgs(t, jr2.Recovered(), append(append([]Message(nil), want[:2]...), extra))
		jr2.Close()
	}
}

// TestJournalMidFileCorruption flips one byte inside a fully synced,
// non-final frame and asserts the damage is detected, quarantined to
// journal.log.corrupt, and reported — never silently truncated.
func TestJournalMidFileCorruption(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 3})
	j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var want []Message
	for i := 0; i < 3; i++ {
		m := jmsg(i)
		j.Append(m)
		want = append(want, m)
	}
	j.Close()
	path := filepath.Join("/n0", journalFile)
	raw, _ := fs.ReadFile(path)
	// Corrupt the payload of the middle frame.
	first := journalHdrLen
	n0 := int(raw[first+2])<<8 | int(raw[first+3])
	target := first + frameHdrLen + n0 + frameHdrLen + 3
	raw[target] ^= 0x40
	fs.Install(path, raw, len(raw))

	j2, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sameMsgs(t, j2.Recovered(), want[:1])
	st := j2.Stats()
	if st.Corrupt != 1 || st.CorruptBytes == 0 {
		t.Fatalf("stats = %+v, want one corruption event with bytes", st)
	}
	q, err := fs.ReadFile(filepath.Join("/n0", corruptFile))
	if err != nil || len(q) != int(st.CorruptBytes) {
		t.Fatalf("quarantine file: %d bytes, err %v, want %d", len(q), err, st.CorruptBytes)
	}
}

func TestJournalBadMagicQuarantinesWholeFile(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 4})
	path := filepath.Join("/n0", journalFile)
	fs.Install(path, []byte("this is not a journal, definitely"), 33)
	j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(j.Recovered()) != 0 {
		t.Fatalf("recovered %d from garbage", len(j.Recovered()))
	}
	if st := j.Stats(); st.Corrupt != 1 || st.CorruptBytes != 33 {
		t.Fatalf("stats = %+v", st)
	}
}

// v2Journal builds what the previous build left behind: the HERMJNL2 magic
// over the same frame envelope, with payloads (gob then) that are no
// Message to this build's decoder.
func v2Journal(t *testing.T) []byte {
	t.Helper()
	raw := []byte("HERMJNL2\x00\x00\x00\x00\x00\x00\x00\x00")
	for _, payload := range []string{"\x7f\xff\x81\x03\x01\x01\x07Message\x01\xff\x82", "\x0b\xff\x82\x01\x02\x01\x0a"} {
		start := len(raw)
		raw = append(codec.BeginFrame(raw), payload...)
		if err := codec.EndFrame(raw, start); err != nil {
			t.Fatal(err)
		}
	}
	return raw
}

// TestJournalRefusesIncompatibleBuild: a journal the previous build wrote
// (format v2: gob payloads) must fail the open, untouched — quarantining it
// as corruption would leave the node replaying nothing and silently
// restarting from empty state.
func TestJournalRefusesIncompatibleBuild(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 4})
	path := filepath.Join("/n0", journalFile)
	old := v2Journal(t)
	fs.Install(path, old, len(old))
	_, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if want := "written by an incompatible build (format v2, this build reads v8)"; err == nil || !contains(err.Error(), want) {
		t.Fatalf("open of a v2 journal: err = %v, want one saying %q", err, want)
	}
	if raw, rerr := fs.ReadFile(path); rerr != nil || string(raw) != string(old) {
		t.Fatalf("refused journal was modified: %q (%v)", raw, rerr)
	}
	if _, rerr := fs.ReadFile(filepath.Join("/n0", corruptFile)); !diskio.IsNotExist(rerr) {
		t.Fatalf("refused journal was quarantined (read err %v)", rerr)
	}
}

// TestJournalRefusesPreviousFormat: v3 and v4 journals share a frame
// layout this build no longer reads, and some of their frames (a v4
// MsgTxnDone, whose records, payload and batch flag are three zero bytes)
// still parse under it by accident. The digit alone must refuse either
// file, untouched, even when every frame in it parses.
func TestJournalRefusesPreviousFormat(t *testing.T) {
	for _, digit := range journalRefused {
		fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 5})
		j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		j.Append(Message{From: 2, To: 0, Type: MsgTxnDone, Txn: 1234, Seq: 1201, Link: 9, Inc: 1})
		j.Close()
		path := filepath.Join("/n0", journalFile)
		old, _ := fs.ReadFile(path)
		old[len(journalMagic)] = byte(digit)
		fs.Install(path, old, len(old))
		_, err = OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
		if want := fmt.Sprintf("incompatible build (format v%c, this build reads v8)", digit); err == nil || !contains(err.Error(), want) {
			t.Fatalf("open of a v%c journal: err = %v, want one saying %q", digit, err, want)
		}
		if raw, rerr := fs.ReadFile(path); rerr != nil || string(raw) != string(old) {
			t.Fatalf("refused v%c journal was modified: %q (%v)", digit, raw, rerr)
		}
	}
}

// TestJournalRefusedDigitsAreFarFromTheVersion: a single rotted bit in
// this build's header must read as damage (quarantine), never as another
// build's file (refusal), so every refused digit differs from
// journalVersion in at least two bits.
func TestJournalRefusedDigitsAreFarFromTheVersion(t *testing.T) {
	for _, digit := range journalRefused {
		if d := bits.OnesCount8(byte(digit) ^ journalVersion); d < 2 {
			t.Errorf("refused digit %q is %d bit flip from journalVersion %q", digit, d, journalVersion)
		}
	}
}

// TestJournalFlippedVersionByteIsCorruption: one flipped bit turns this
// build's '8' into '9'. The frames behind it still decode, so it is a
// damaged header, not another build's file — it takes the quarantine path
// every other damaged header takes and the open succeeds (the disk-fault
// chaos schedules flip bytes of never-synced headers and require exactly
// that).
func TestJournalFlippedVersionByteIsCorruption(t *testing.T) {
	for _, frames := range []int{0, 2} {
		fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 7})
		j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			j.Append(jmsg(i))
		}
		j.Close()
		path := filepath.Join("/n0", journalFile)
		raw, _ := fs.ReadFile(path)
		raw[len(journalMagic)] ^= 1
		fs.Install(path, raw, len(raw))
		j2, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
		if err != nil {
			t.Fatalf("%d frames: a flipped version byte failed the open: %v", frames, err)
		}
		if st := j2.Stats(); st.Corrupt != 1 || st.CorruptBytes != int64(len(raw)) || len(j2.Recovered()) != 0 {
			t.Fatalf("%d frames: stats = %+v with %d recovered, want the whole file quarantined", frames, st, len(j2.Recovered()))
		}
		j2.Close()
	}
}

// TestJournalOpenSurvivesRotOfUnsyncedFile is the disk-fault chaos
// contract in miniature: after a power cut, bytes that were never fsynced
// — under policy none that includes the header and its version digit —
// may come back with flipped bits, and recovery must repair or quarantine,
// never refuse to start.
func TestJournalOpenSurvivesRotOfUnsyncedFile(t *testing.T) {
	build := diskio.NewMemFS(diskio.FaultSpec{Seed: 1})
	j, err := OpenJournalWith("/n0", JournalOpts{FS: build})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		j.Append(jmsg(i))
	}
	j.Close()
	path := filepath.Join("/n0", journalFile)
	raw, _ := build.ReadFile(path)
	for seed := int64(0); seed < 2000; seed++ {
		fs := diskio.NewMemFS(diskio.FaultSpec{Seed: seed, CrashBitFlipProb: 0.05})
		fs.Install(path, raw, 0)
		fs.Crash()
		jr, err := OpenJournalWith("/n0", JournalOpts{FS: fs})
		if err != nil {
			t.Fatalf("seed %d: open after rot: %v", seed, err)
		}
		jr.Close()
	}
}

// TestJournalUndecodableFrameQuarantined: a frame whose CRC holds but whose
// payload is no message is damage to acked data like any other — the
// suffix from it on is quarantined, with the decode error as the reason.
func TestJournalUndecodableFrameQuarantined(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 6})
	j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(jmsg(0))
	j.Close()
	path := filepath.Join("/n0", journalFile)
	raw, _ := fs.ReadFile(path)
	bogus := append(codec.BeginFrame(nil), "checksummed, but not a message"...)
	if err := codec.EndFrame(bogus, 0); err != nil {
		t.Fatal(err)
	}
	tail, err := appendFrame(nil, &Message{From: 1, To: 0, Link: 2, Inc: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw = append(append(raw, bogus...), tail...)
	fs.Install(path, raw, len(raw))

	rep := replayJournal(raw)
	if rep.quarantine < 0 || !contains(rep.reason, "does not decode despite valid CRC") {
		t.Fatalf("replay = %+v, want a quarantine naming the decode failure", rep)
	}
	j2, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sameMsgs(t, j2.Recovered(), []Message{jmsg(0)})
	if st := j2.Stats(); st.Corrupt != 1 || st.CorruptBytes != int64(len(bogus)+len(tail)) {
		t.Fatalf("stats = %+v, want the bogus frame and everything behind it quarantined", st)
	}
}

// TestJournalAppendRepairsShortAndTornWrites exercises the satellite fix:
// short writes loop, failed writes truncate the torn prefix and retry, and
// the resulting file is byte-clean for recovery.
func TestJournalAppendRepairsShortAndTornWrites(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 5})
	j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var want []Message
	fs.FailNextWrite(3, nil) // short write mid-frame: WriteFull must loop
	m0 := jmsg(0)
	j.Append(m0)
	want = append(want, m0)

	fs.FailNextWrite(7, errors.New("injected torn write")) // torn: must truncate+retry
	m1 := jmsg(1)
	j.Append(m1)
	want = append(want, m1)

	st := j.Stats()
	if st.AppendRetries == 0 {
		t.Fatalf("AppendRetries = 0, want repairs recorded")
	}
	j.Close()
	j2, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sameMsgs(t, j2.Recovered(), want)
	if st2 := j2.Stats(); st2.TornRecords != 0 || st2.Corrupt != 0 {
		t.Fatalf("repair left damage on disk: %+v", st2)
	}
}

// TestJournalGroupCommitGatesAcks asserts the batch policy's contract: an
// AfterDurable callback runs only after an fsync covering its frame
// returns, a failed fsync withholds it (and retries), and callbacks
// release in FIFO order.
func TestJournalGroupCommitGatesAcks(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 6})
	j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Hold the group commit back with a run of scripted fsync failures.
	for i := 0; i < 3; i++ {
		fs.FailNextSync(errors.New("injected fsync failure"), false)
	}
	var mu sync.Mutex
	var order []int
	released := make(chan struct{}, 2)
	path := filepath.Join("/n0", journalFile)
	for i := 0; i < 2; i++ {
		i := i
		j.Append(jmsg(i))
		j.AfterDurable(func() {
			if got, want := int64(fs.DurableLen(path)), func() int64 {
				j.mu.Lock()
				defer j.mu.Unlock()
				return j.size
			}(); got < want {
				t.Errorf("ack %d released before durability: durable %d < size %d", i, got, want)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			released <- struct{}{}
		})
	}
	for i := 0; i < 2; i++ {
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Fatal("ack never released")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(order, []int{0, 1}) {
		t.Fatalf("release order = %v, want FIFO", order)
	}
	st := j.Stats()
	if st.SyncFailures < 3 {
		t.Fatalf("SyncFailures = %d, want ≥ 3 (scripted)", st.SyncFailures)
	}
	if st.Fsyncs == 0 || st.BatchedAcks < 2 {
		t.Fatalf("stats = %+v, want a successful group commit covering both acks", st)
	}
}

// gatedFS wraps a backend so a test can hold one fsync's *result* in
// flight: the underlying sync completes, then the return is delayed until
// the test releases it — the exact window in which Rotate can swap the
// journal file under a group commit.
type syncGate struct {
	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	release chan struct{}
}

type gatedFS struct {
	diskio.FS
	g *syncGate
}

func (f gatedFS) Create(path string) (diskio.File, error) {
	h, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return gatedFile{File: h, g: f.g}, nil
}

func (f gatedFS) OpenAppend(path string) (diskio.File, error) {
	h, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return gatedFile{File: h, g: f.g}, nil
}

type gatedFile struct {
	diskio.File
	g *syncGate
}

func (f gatedFile) Sync() error {
	err := f.File.Sync()
	f.g.mu.Lock()
	armed := f.g.armed
	f.g.armed = false
	f.g.mu.Unlock()
	if armed {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return err
}

// TestJournalGroupCommitIgnoresStaleSyncAfterRotate pins the fix for a race
// between drainBatch and Rotate: a group commit fsyncs the pre-rotation
// file, Rotate swaps in a smaller rewritten file, and the stale (larger)
// byte target must be discarded — applying it would push synced past the
// new file's size and release acks for frames never fsynced there.
func TestJournalGroupCommitIgnoresStaleSyncAfterRotate(t *testing.T) {
	mem := diskio.NewMemFS(diskio.FaultSpec{Seed: 11})
	g := &syncGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	j, err := OpenJournalWith("/n0", JournalOpts{FS: gatedFS{FS: mem, g: g}, Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		j.Append(jmsg(i))
	}
	// Arm the gate and start a group commit: its fsync completes against
	// the pre-rotation file, then its result is held in flight.
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
	ack0 := make(chan struct{})
	j.AfterDurable(func() { close(ack0) })
	<-g.entered

	// While the result is in flight, rotate everything away and append one
	// frame to the new, smaller file. The frame is volatile: the only fsync
	// issued since is the stale one against the old file.
	if err := j.Rotate(3); err != nil {
		t.Fatal(err)
	}
	j.Append(jmsg(3))
	path := filepath.Join("/n0", journalFile)
	j.mu.Lock()
	want := j.size
	j.mu.Unlock()
	ack1 := make(chan struct{})
	j.AfterDurable(func() {
		if got := int64(mem.DurableLen(path)); got < want {
			t.Errorf("ack released with %d durable bytes, want ≥ %d (stale pre-rotation sync credited to new file)", got, want)
		}
		close(ack1)
	})

	close(g.release) // deliver the stale fsync result
	for _, ch := range []chan struct{}{ack0, ack1} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("ack never released")
		}
	}
	j.mu.Lock()
	if j.synced > j.size {
		t.Errorf("synced %d > size %d: stale watermark applied to rotated file", j.synced, j.size)
	}
	j.mu.Unlock()
}

func TestJournalAlwaysSyncsEveryAppend(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 7})
	j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	path := filepath.Join("/n0", journalFile)
	for i := 0; i < 3; i++ {
		j.Append(jmsg(i))
		ran := false
		j.AfterDurable(func() { ran = true })
		if !ran {
			t.Fatal("AfterDurable must run inline under always")
		}
		if sz, durable := int64(0), fs.DurableLen(path); true {
			j.mu.Lock()
			sz = j.size
			j.mu.Unlock()
			if int64(durable) < sz {
				t.Fatalf("append %d not durable: %d < %d", i, durable, sz)
			}
		}
	}
	if st := j.Stats(); st.Fsyncs < 4 { // baseline + 3 appends
		t.Fatalf("Fsyncs = %d, want ≥ 4", st.Fsyncs)
	}
}

func TestJournalRotateAndRecoveredSince(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 8})
	j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	var all []Message
	for i := 0; i < 5; i++ {
		m := jmsg(i)
		j.Append(m)
		all = append(all, m)
	}
	if err := j.Rotate(3); err != nil {
		t.Fatal(err)
	}
	if j.Base() != 3 || j.Count() != 5 {
		t.Fatalf("base/count = %d/%d, want 3/5", j.Base(), j.Count())
	}
	// Appends after rotation extend the absolute numbering.
	m5 := jmsg(5)
	j.Append(m5)
	all = append(all, m5)
	j.Close()

	j2, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sameMsgs(t, j2.Recovered(), all[3:])
	got, err := j2.RecoveredSince(4)
	if err != nil {
		t.Fatal(err)
	}
	sameMsgs(t, got, all[4:])
	if _, err := j2.RecoveredSince(2); err == nil {
		t.Fatal("RecoveredSince below rotation base must fail loudly")
	}
	if _, err := j2.RecoveredSince(7); err == nil {
		t.Fatal("RecoveredSince beyond journaled frames must fail loudly")
	}
	// Floors survive rotation through the frames still present, and
	// checkpoint-seeded floors survive an empty journal.
	if fl := j2.Floors(); fl[1] != (LinkFloor{Inc: 1, Link: 6}) {
		t.Fatalf("floor = %+v, want {1 6}", fl[1])
	}
}

func TestJournalFloorsSeededFromCheckpoint(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 9})
	seed := map[tx.NodeID]LinkFloor{2: {Inc: 3, Link: 41}}
	j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncBatch, Floors: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// A journaled frame from the same sender at a lower (inc, link) must
	// not regress the floor; a higher one must advance it.
	j.Append(Message{From: 2, To: 0, Type: MsgRecordPush, Link: 7, Inc: 3})
	if fl := j.Floors(); fl[2] != (LinkFloor{Inc: 3, Link: 41}) {
		t.Fatalf("floor regressed: %+v", fl[2])
	}
	j.Append(Message{From: 2, To: 0, Type: MsgRecordPush, Link: 42, Inc: 3})
	if fl := j.Floors(); fl[2] != (LinkFloor{Inc: 3, Link: 42}) {
		t.Fatalf("floor = %+v, want {3 42}", fl[2])
	}
}

func TestJournalIncarnationMonotonicAcrossCrash(t *testing.T) {
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 10})
	j, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Crash mid-bump: the atomic write sequence fails before committing.
	fs.FailNextSync(errors.New("fsync died"), false)
	if _, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways}); err == nil {
		t.Fatal("open with failed incarnation commit must error")
	}
	fs.Crash()
	j2, err := OpenJournalWith("/n0", JournalOpts{FS: fs, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Incarnation() != 2 {
		t.Fatalf("incarnation = %d, want 2 (strictly above last committed life)", j2.Incarnation())
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, ok := range []string{"", "none", "batch", "always"} {
		if _, err := ParseSyncPolicy(ok); err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParseSyncPolicy("everysooften"); err == nil {
		t.Fatal("want error for unknown policy")
	}
}
