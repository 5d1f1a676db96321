// Disk-fault schedules: each node carries a shadow delivery journal over a
// fault-injecting in-memory filesystem (diskio.MemFS), so the real journal
// code path — CRC framing, torn-append repair, group-commit fsync, ack
// gating — runs against torn writes, short writes, and failed fsyncs while
// the cluster executes a live chaos workload. The equivalence suite then
// asserts the usual property: none of it may perturb the deterministic
// state machine.
//
// On top of live injection, the shadows support an offline crash check: at
// each scheduled node crash (for the victim) and at end of run (for every
// node), the journal file is snapshotted, fed through MemFS's power-cut
// model (un-fsynced suffix torn at a seeded point, surviving bytes
// bit-flipped), and re-opened by the real recovery path. Recovery must
// succeed, must keep at least every frame whose ack was released through
// the durability gate, and must replay a strict prefix of what was
// appended — frame for frame.
//
// Check refuses Disk.SyncLieProb: a device that acknowledges fsyncs it
// never performed legitimately breaks the acked ⇒ recovered invariant
// (that is the point of the fault), so it is covered by a targeted diskio
// unit test rather than an equivalence gate.
package chaos

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"hermes/internal/diskio"
	"hermes/internal/network"
	"hermes/internal/tx"
)

// DiskStats aggregates what the shadow journals did and suffered during
// one run (summed over all nodes; zero unless Schedule.Disk is set).
type DiskStats struct {
	// Frames counts messages appended across all shadow journals.
	Frames int64
	// Writes/Fsyncs are the MemFS totals; TornWrites, ShortWrites and
	// SyncFails count the faults actually injected.
	Writes, Fsyncs                     int64
	TornWrites, ShortWrites, SyncFails int64
	// AppendRetries counts torn appends the journal repaired in place.
	AppendRetries int64
	// CrashChecks counts offline crash-recovery verifications performed.
	CrashChecks int64
}

// shadowJournalFile mirrors the network package's on-disk journal name
// (the layout is the network journal's; chaos only chooses the directory).
const shadowJournalFile = "journal.log"

// shadowSet owns one shadow journal per node for a disk-fault run.
type shadowSet struct {
	shadows map[tx.NodeID]*shadowJournal
}

// shadowJournal is one node's fault-injected delivery journal plus the
// in-memory mirror and ack watermark the offline crash check compares
// against. Lock order: mu → Journal.mu → MemFS.mu (the ack-gate callback
// touches only atomics, so the group-commit goroutine never takes mu).
type shadowJournal struct {
	node    tx.NodeID
	dir     string
	seed    int64 // schedule seed: crash-check seeds derive from it
	policy  network.SyncPolicy
	bitFlip float64 // Disk.CrashBitFlipProb, applied by the crash check
	fs      *diskio.MemFS
	jr      *network.Journal

	mu     sync.Mutex
	mirror []network.Message // every frame appended, in journal order

	// acked is the highest frame count whose durability gate has released
	// (those frames were fsynced before their acks went out); checks
	// counts offline crash verifications.
	acked  atomic.Uint64
	checks atomic.Int64
}

// newShadowSet builds the per-node shadow journals for sched.
func newShadowSet(sched Schedule, ids []tx.NodeID) (*shadowSet, error) {
	set := &shadowSet{shadows: make(map[tx.NodeID]*shadowJournal, len(ids))}
	for _, n := range ids {
		sh, err := newShadowJournal(sched, n)
		if err != nil {
			set.Close()
			return nil, err
		}
		set.shadows[n] = sh
	}
	return set, nil
}

func newShadowJournal(sched Schedule, node tx.NodeID) (*shadowJournal, error) {
	spec := *sched.Disk
	spec.Seed = int64(mixSeed(sched.Seed, uint64(node), 0x5AD0))
	sh := &shadowJournal{
		node:    node,
		dir:     fmt.Sprintf("/shadow/node%d", node),
		seed:    sched.Seed,
		policy:  sched.Fsync,
		bitFlip: spec.CrashBitFlipProb,
		fs:      diskio.NewMemFS(spec),
	}
	if sh.policy == "" {
		sh.policy = network.SyncBatch
	}
	// Opening consumes fault draws too (header write, baseline fsync), so
	// an unlucky seed can fail the first attempts; each retry starts from
	// a clean truncate. Exhausting the budget means the fault rates are
	// beyond what any journal could open under — report, don't wedge.
	var lastErr error
	for attempt := 0; attempt < 32; attempt++ {
		jr, err := network.OpenJournalWith(sh.dir, network.JournalOpts{FS: sh.fs, Policy: sh.policy})
		if err == nil {
			sh.jr = jr
			return sh, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("chaos: open shadow journal for node %d under %v: %w", node, sched, lastErr)
}

// journalFor is the engine.Config.JournalFor hook. The reliable layer
// also delivers for sequencer pseudo-nodes; those carry no shadow (nil
// sink), exactly like a cluster process's non-worker destinations.
func (s *shadowSet) journalFor(n tx.NodeID) func(network.Message) {
	sh := s.shadows[n]
	if sh == nil {
		return nil
	}
	return func(m network.Message) { sh.append(m) }
}

// ackGateFor is the engine.Config.AckGateFor hook.
func (s *shadowSet) ackGateFor(n tx.NodeID) func(func()) {
	sh := s.shadows[n]
	if sh == nil {
		return nil
	}
	return func(fn func()) { sh.gate(fn) }
}

// append journals one delivered message and mirrors it. Holding mu across
// both keeps the mirror index-aligned with the journal's frame order even
// while a verification snapshot runs concurrently.
func (sh *shadowJournal) append(m network.Message) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.jr.Append(m)
	sh.mirror = append(sh.mirror, m)
}

// gate routes an ack send through the journal's durability gate and
// records, once the gate releases, that every frame appended so far is
// durable — the floor the offline crash check holds recovery to.
func (sh *shadowJournal) gate(fn func()) {
	cnt := sh.jr.Count()
	sh.jr.AfterDurable(func() {
		for {
			old := sh.acked.Load()
			if cnt <= old || sh.acked.CompareAndSwap(old, cnt) {
				break
			}
		}
		fn()
	})
}

// verify runs the offline crash check against the journal's current
// contents: simulate a power cut at the MemFS durable watermark (with
// seeded tearing and bit-flips beyond it), re-open through the real
// recovery path, and hold the result to the durability contract.
func (sh *shadowJournal) verify(round int) error {
	// Read the ack watermark before snapshotting: acks only grow, and the
	// durable watermark at snapshot time covers everything acked earlier,
	// so the ordering can never manufacture a false violation.
	acked := sh.acked.Load()
	if sh.policy == network.SyncNone {
		acked = 0 // nothing was ever promised durable
	}
	path := filepath.Join(sh.dir, shadowJournalFile)
	sh.mu.Lock()
	data, _, err := sh.fs.SnapshotFile(path)
	durable := sh.fs.DurableLen(path)
	mirror := append([]network.Message(nil), sh.mirror...)
	sh.mu.Unlock()
	if err != nil {
		return fmt.Errorf("chaos: snapshot shadow journal for node %d: %w", sh.node, err)
	}
	sh.checks.Add(1)
	return verifyCrashSnapshot(crashVerifyInput{
		node:      sh.node,
		dir:       sh.dir,
		data:      data,
		durable:   durable,
		mirror:    mirror,
		acked:     acked,
		bitFlip:   sh.bitFlip,
		crashSeed: int64(mixSeed(sh.seed, uint64(sh.node), uint64(0xC4A5+round))),
	})
}

// crashVerifyInput is one offline crash-recovery check, fully decoupled
// from the live shadow so negative tests can feed damaged snapshots.
type crashVerifyInput struct {
	node      tx.NodeID
	dir       string
	data      []byte            // journal file contents at the cut
	durable   int               // byte watermark fsync had made stable
	mirror    []network.Message // every frame ever appended, in order
	acked     uint64            // frames whose durability gate released
	bitFlip   float64           // per-byte corruption odds past durable
	crashSeed int64             // seeds the tear point and the flips
}

// verifyCrashSnapshot pushes the snapshot through MemFS's power-cut model
// and the real journal recovery, then asserts the durability contract:
// recovery succeeds (damage is repaired or quarantined, never fatal),
// keeps every acked frame, and yields a strict prefix of the appended
// stream with every surviving frame field-identical to what was written.
func verifyCrashSnapshot(in crashVerifyInput) error {
	cfs := diskio.NewMemFS(diskio.FaultSpec{Seed: in.crashSeed, CrashBitFlipProb: in.bitFlip})
	path := filepath.Join(in.dir, shadowJournalFile)
	cfs.Install(path, in.data, in.durable)
	cfs.Crash()
	jr, err := network.OpenJournalWith(in.dir, network.JournalOpts{FS: cfs, Policy: network.SyncNone})
	if err != nil {
		return fmt.Errorf("chaos: node %d journal did not survive crash recovery (seed=%d): %w",
			in.node, in.crashSeed, err)
	}
	rec := jr.Recovered()
	jr.Close()
	if uint64(len(rec)) < in.acked {
		return fmt.Errorf("chaos: DURABILITY VIOLATION on node %d: crash recovery kept %d frames but %d were acked durable (seed=%d)",
			in.node, len(rec), in.acked, in.crashSeed)
	}
	if len(rec) > len(in.mirror) {
		return fmt.Errorf("chaos: node %d crash recovery yielded %d frames but only %d were ever appended (seed=%d)",
			in.node, len(rec), len(in.mirror), in.crashSeed)
	}
	for i, m := range rec {
		w := in.mirror[i]
		if m.From != w.From || m.To != w.To || m.Type != w.Type || m.Txn != w.Txn ||
			m.Seq != w.Seq || m.Link != w.Link || m.Inc != w.Inc {
			return fmt.Errorf("chaos: node %d frame %d diverges after crash recovery (seed=%d): got {from=%d to=%d type=%d txn=%v seq=%d link=%d inc=%d}, want {from=%d to=%d type=%d txn=%v seq=%d link=%d inc=%d}",
				in.node, i, in.crashSeed,
				m.From, m.To, m.Type, m.Txn, m.Seq, m.Link, m.Inc,
				w.From, w.To, w.Type, w.Txn, w.Seq, w.Link, w.Inc)
		}
		if err := sameBatch(m.Batch, w.Batch); err != nil {
			return fmt.Errorf("chaos: node %d frame %d batch diverges after crash recovery (seed=%d): %w",
				in.node, i, in.crashSeed, err)
		}
	}
	return nil
}

// sameBatch reports whether a recovered frame carries the batch that was
// appended: the same presence, Seq, and encoded requests.
func sameBatch(got, want *tx.Batch) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("batch present %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	if got.Seq != want.Seq {
		return fmt.Errorf("batch seq %d, want %d", got.Seq, want.Seq)
	}
	gb, err := tx.AppendBatch(nil, got)
	if err != nil {
		return err
	}
	wb, err := tx.AppendBatch(nil, want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("batch %d encodes to different bytes (%d vs %d)", got.Seq, len(gb), len(wb))
	}
	return nil
}

// verify runs the offline crash check for one node, rounds times with
// distinct seeds (distinct tear points and flip patterns).
func (s *shadowSet) verify(n tx.NodeID, rounds int) error {
	sh := s.shadows[n]
	if sh == nil {
		return fmt.Errorf("chaos: no shadow journal for node %d", n)
	}
	for r := 0; r < rounds; r++ {
		if err := sh.verify(r); err != nil {
			return err
		}
	}
	return nil
}

// verifyAll runs the offline crash check for every node, in node order so
// a multi-node failure always reports the same first violation.
func (s *shadowSet) verifyAll(rounds int) error {
	nodes := make([]tx.NodeID, 0, len(s.shadows))
	for n := range s.shadows {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		if err := s.verify(n, rounds); err != nil {
			return err
		}
	}
	return nil
}

// stats sums the shadows' fault and activity counters.
func (s *shadowSet) stats() DiskStats {
	var d DiskStats
	for _, sh := range s.shadows {
		ms := sh.fs.Stats()
		js := sh.jr.Stats()
		d.Frames += int64(sh.jr.Count())
		d.Writes += ms.Writes
		d.Fsyncs += ms.Syncs
		d.TornWrites += ms.TornWrites
		d.ShortWrites += ms.ShortWrites
		d.SyncFails += ms.SyncFails
		d.AppendRetries += js.AppendRetries
		d.CrashChecks += sh.checks.Load()
	}
	return d
}

// Close shuts every shadow journal down (final group commit included).
func (s *shadowSet) Close() {
	for _, sh := range s.shadows {
		if sh.jr != nil {
			sh.jr.Close()
		}
	}
}
