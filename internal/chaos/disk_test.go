package chaos

import (
	"path/filepath"
	"strings"
	"testing"

	"hermes/internal/diskio"
	"hermes/internal/network"
	"hermes/internal/tx"
)

// TestDiskFaultEquivalence is the storage-fault acceptance property: with
// every node's delivery journal running over fault-injecting storage —
// torn writes, short writes, failed fsyncs — plus a mid-run node crash
// whose journal is pushed through the power-cut recovery model, every
// routing policy must still quiesce to state byte-identical to the
// fault-free baseline. The disk layer sits below determinism: it may slow
// acks down, it may never change what executes.
func TestDiskFaultEquivalence(t *testing.T) {
	policies := Policies()
	if testing.Short() {
		policies = []string{"hermes", "calvin"}
	}
	scheds := append([]Schedule{{Name: "baseline", Seed: 7170}}, DiskFaultSchedules(7170)...)
	for _, pol := range policies {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			spec := Spec{Policy: pol, Workload: WorkloadYCSB, Nodes: 3, Txns: 64, Batch: 8, Seed: 505}
			results, err := Equivalence(spec, scheds)
			if err != nil {
				t.Fatal(err)
			}
			// Prove the schedules actually hurt the storage layer: the torn
			// schedule forced append repairs, the fsync-fail schedule failed
			// fsyncs, and every disk schedule journaled frames and ran the
			// offline crash check (once at the kill, twice per node at end).
			for _, r := range results[1:] {
				d := r.Schedule.Disk
				if d == nil {
					t.Fatalf("%v carries no disk faults", r.Schedule)
				}
				if r.Disk.Frames == 0 {
					t.Errorf("%v journaled no frames", r.Schedule)
				}
				wantChecks := int64(2*spec.Nodes + len(r.Schedule.Kills))
				if r.Disk.CrashChecks < wantChecks {
					t.Errorf("%v ran %d crash checks, want >= %d", r.Schedule, r.Disk.CrashChecks, wantChecks)
				}
				if d.TornWriteProb > 0.05 && r.Disk.TornWrites == 0 {
					t.Errorf("%v injected no torn writes", r.Schedule)
				}
				if d.TornWriteProb > 0.05 && r.Disk.AppendRetries == 0 {
					t.Errorf("%v repaired no torn appends", r.Schedule)
				}
				if d.ShortWriteProb > 0 && r.Disk.ShortWrites == 0 {
					t.Errorf("%v injected no short writes", r.Schedule)
				}
				if d.SyncFailProb > 0 && r.Disk.SyncFails == 0 {
					t.Errorf("%v failed no fsyncs", r.Schedule)
				}
			}
		})
	}
}

// buildVerifiedJournal appends n frames to a group-commit journal over
// clean in-memory storage, waiting out the fsync that covers each one
// (every frame durable at return), and hands back the snapshot the offline
// crash check would take.
func buildVerifiedJournal(t *testing.T, dir string, n int) (data []byte, durable int, mirror []network.Message) {
	t.Helper()
	fs := diskio.NewMemFS(diskio.FaultSpec{Seed: 1})
	jr, err := network.OpenJournalWith(dir, network.JournalOpts{FS: fs, Policy: network.SyncBatch})
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	for i := 0; i < n; i++ {
		m := network.Message{
			From: tx.NodeID(1 + i%2), To: 0, Type: network.MsgRecordPush,
			Txn: tx.TxnID(100 + i), Seq: uint64(i), Link: uint64(i/2 + 1), Inc: 1,
			Payload: []byte{byte(i), byte(i >> 8), 0xAB},
		}
		if i%3 == 0 {
			// Every third frame is a delivered batch, as the sequencer
			// sends them: the crash check compares batches too.
			m.Type, m.Payload = network.MsgSeqDeliver, nil
			k := tx.MakeKey(0, uint64(i))
			m.Batch = &tx.Batch{Seq: uint64(i), Txns: []*tx.Request{
				tx.NewRequest(tx.TxnID(100+i), &tx.CounterProc{Reads: []tx.Key{k}, Writes: []tx.Key{k}, Payload: 32}),
				tx.NewRequest(tx.TxnID(200+i), &tx.CounterProc{Reads: []tx.Key{k}, Writes: []tx.Key{k}, Abort: true}),
			}}
		}
		jr.Append(m)
		durable := make(chan struct{})
		jr.AfterDurable(func() { close(durable) })
		<-durable
		mirror = append(mirror, m)
	}
	if err := jr.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
	path := filepath.Join(dir, shadowJournalFile)
	data, _, err = fs.SnapshotFile(path)
	if err != nil {
		t.Fatalf("snapshotting journal: %v", err)
	}
	return data, fs.DurableLen(path), mirror
}

// TestDiskCrashCheckCatchesDurablePrefixDamage proves the offline checker
// is not vacuous: an intact fully-durable journal passes it under heavy
// bit-flip odds (flips only ever target un-fsynced bytes, and there are
// none), while a single corrupted byte inside the durable prefix — damage
// the durability contract says cannot happen — makes it fail loudly.
func TestDiskCrashCheckCatchesDurablePrefixDamage(t *testing.T) {
	const frames = 12
	dir := "/neg/node0"
	data, durable, mirror := buildVerifiedJournal(t, dir, frames)
	if durable != len(data) {
		t.Fatalf("journal not fully durable: %d of %d bytes", durable, len(data))
	}

	base := crashVerifyInput{
		node: 0, dir: dir, data: data, durable: durable,
		mirror: mirror, acked: frames, bitFlip: 0.5, crashSeed: 99,
	}
	if err := verifyCrashSnapshot(base); err != nil {
		t.Fatalf("intact durable journal failed the crash check: %v", err)
	}

	// Flip one bit in the middle of the durable region (past the 16-byte
	// file header, so the damage lands inside a frame, not the magic).
	damaged := base
	damaged.data = append([]byte(nil), data...)
	damaged.data[16+(len(data)-16)/2] ^= 0x40
	err := verifyCrashSnapshot(damaged)
	if err == nil {
		t.Fatal("crash check accepted a journal with corrupted durable bytes")
	}
	if !strings.Contains(err.Error(), "DURABILITY VIOLATION") &&
		!strings.Contains(err.Error(), "diverges") {
		t.Errorf("crash check failed for the wrong reason: %v", err)
	}

	// Truncating below the acked watermark — frames fsync promised —
	// must equally be refused.
	short := base
	short.data = data[:len(data)/2]
	short.durable = len(short.data)
	if err := verifyCrashSnapshot(short); err == nil {
		t.Fatal("crash check accepted a journal missing acked frames")
	} else if !strings.Contains(err.Error(), "DURABILITY VIOLATION") {
		t.Errorf("truncation failed for the wrong reason: %v", err)
	}
}

// TestDiskCrashCheckComparesBatches: a recovered frame whose header
// matches but whose batch differs from what was appended — a different
// batch Seq or a different procedure inside — must be reported.
func TestDiskCrashCheckComparesBatches(t *testing.T) {
	const frames = 9
	dir := "/neg/node1"
	data, durable, mirror := buildVerifiedJournal(t, dir, frames)
	base := crashVerifyInput{node: 1, dir: dir, data: data, durable: durable, mirror: mirror, acked: frames, crashSeed: 7}
	if err := verifyCrashSnapshot(base); err != nil {
		t.Fatalf("intact journal with batches failed the crash check: %v", err)
	}
	for name, damage := range map[string]func(*tx.Batch){
		"seq":     func(b *tx.Batch) { b.Seq++ },
		"payload": func(b *tx.Batch) { b.Txns[0].Proc.(*tx.CounterProc).Payload++ },
		"abort":   func(b *tx.Batch) { b.Txns[1].Proc.(*tx.CounterProc).Abort = false },
		"dropped": func(b *tx.Batch) { b.Txns = b.Txns[:1] },
	} {
		bad := base
		bad.mirror = append([]network.Message(nil), mirror...)
		orig := mirror[3].Batch
		cp := &tx.Batch{Seq: orig.Seq}
		for _, r := range orig.Txns {
			p := *r.Proc.(*tx.CounterProc)
			cp.Txns = append(cp.Txns, tx.NewRequest(r.ID, &p))
		}
		damage(cp)
		bad.mirror[3].Batch = cp
		err := verifyCrashSnapshot(bad)
		if err == nil || !strings.Contains(err.Error(), "frame 3 batch diverges") {
			t.Errorf("%s: mirror with a different batch reported %v", name, err)
		}
	}
}

// TestDiskScheduleRequiresReliable pins the wiring invariant: a disk
// schedule must force the reliable layer on, because the journal and
// ack-gate hooks only exist there.
func TestDiskScheduleRequiresReliable(t *testing.T) {
	for _, sched := range DiskFaultSchedules(1) {
		if !sched.RequiresReliable() {
			t.Errorf("%v does not require the reliable layer", sched)
		}
	}
	if (Schedule{Disk: &diskio.FaultSpec{}}).RequiresReliable() != true {
		t.Error("bare disk schedule does not require the reliable layer")
	}
}
