package engine

import (
	"fmt"
	"math"
	"time"

	"hermes/internal/network"
	"hermes/internal/router"
	"hermes/internal/tx"
)

// Checkpoint is a consistent cut of the cluster per §4.3: the storage
// contents of every node after some batch, plus a snapshot of the derived
// routing state at that point. Because the engine quiesces between batches
// before snapshotting, "after batch Seq-1" is a consistent cut by
// construction.
//
// The routing snapshot replaces replay-from-genesis: every policy's
// cross-batch state is exactly its Placement (override map, active set,
// fusion table), and all replicas agree on it at a quiesced cut, so one
// snapshot restores every replica. That is why every replay buffer starts
// at the newest checkpoint — nothing before Seq is ever needed again.
type Checkpoint struct {
	// Seq is the first batch sequence NOT covered by the checkpoint.
	Seq uint64
	// NextTxn is the first transaction id after the checkpointed prefix.
	NextTxn tx.TxnID
	// Stores holds each node's record snapshot.
	Stores map[tx.NodeID]map[tx.Key][]byte
	// Routing is the placement snapshot shared by all replicas at the cut.
	Routing *router.PlacementState
	// Delivered records, per node, the reliable layer's delivery watermark
	// at the cut (how many transport messages the node had consumed). A
	// restarted node rewinds its delivery log to this watermark and
	// re-receives everything after it. Nil when the cluster runs without
	// the reliable layer. With standbys configured it also covers the
	// sequencer replica endpoints, so RestartLeader can replay them.
	Delivered map[tx.NodeID]uint64
	// SeqEpoch and SeqLeader snapshot the sequencer leadership view at the
	// cut; a restarted sequencer replica starts from them before its
	// replayed log catches it up with any later promotions.
	SeqEpoch  uint64
	SeqLeader tx.NodeID
	// SeqClients records the leader's per-client sealed watermarks at the
	// cut (the (Client, ClientSeq) dedup floor; everything at or below is
	// sealed and must never be sequenced again).
	SeqClients map[tx.NodeID]uint64
}

// Checkpoint quiesces the cluster (up to timeout) and snapshots it. It is
// also where the replay buffers start: the sequencer's sealed log (the
// command log TailSince reads), in reliable mode the delivery logs and
// the commit dedup set each hold what came after the cut and nothing
// before it. It reports failure if in-flight transactions do not drain in
// time.
func (c *Cluster) Checkpoint(timeout time.Duration) (*Checkpoint, error) {
	if err := c.DrainDetail(timeout); err != nil {
		return nil, fmt.Errorf("engine: cluster did not quiesce for checkpoint: %w", err)
	}
	// Each buffer is armed before the cut is read and trimmed below it
	// after, so a batch or commit that lands in between stays replayable.
	c.seq.KeepLog()
	if c.rel != nil {
		c.armAccounting()
	}
	nodes := c.nodeList()
	seq, nextTxn := c.seq.Next()
	cp := &Checkpoint{
		Seq:        seq,
		NextTxn:    nextTxn,
		Stores:     make(map[tx.NodeID]map[tx.Key][]byte, len(nodes)),
		SeqEpoch:   c.seq.Epoch(),
		SeqLeader:  c.seq.LeaderID(),
		SeqClients: c.seq.ClientHigh(),
	}
	for _, n := range nodes {
		cut := n.capture()
		cp.Stores[n.id] = cut.Store
		// Every replica holds the same placement at a quiesced cut, so
		// any one snapshot restores them all.
		cp.Routing = cut.Routing
	}
	if c.rel != nil {
		// A delivery log's floor is set at its watermark, read and
		// trimmed in one step. The sequencer replicas get one too:
		// RestartLeader rewinds a killed replica's delivery log to it.
		ids := append(c.seq.Nodes(), c.order...)
		cp.Delivered = make(map[tx.NodeID]uint64, len(ids))
		for _, id := range ids {
			cp.Delivered[id] = c.rel.TruncateDelivered(id, math.MaxUint64)
		}
	}
	// The snapshot covers everything before the cut: the sealed log drops
	// it (a promotion never re-delivers below the cut either), and so does
	// the dedup set, since a replay only re-commits from NextTxn on.
	c.seq.Prune(cp.Seq)
	c.mu.Lock()
	for id := range c.accounted {
		if id < cp.NextTxn {
			delete(c.accounted, id)
		}
	}
	c.lastCP = cp
	c.mu.Unlock()
	return cp, nil
}

// Recover builds a cluster from a checkpoint: storage and placement state
// are restored directly on every replica, the total order resumes after
// the checkpointed prefix, and then any tail batches — input logged after
// the checkpoint — are re-executed in full through ReplayBatches.
//
// The returned cluster has no checkpoint of its own yet (the delivery
// watermarks in cp refer to the dead cluster's transport); take a fresh
// Checkpoint before using CrashNode on it.
func Recover(cfg Config, cp *Checkpoint, tail []*tx.Batch) (*Cluster, error) {
	c, err := build(cfg)
	if err != nil {
		return nil, err
	}
	// The transport, the reliable layer and session front-ends run
	// goroutines as of build; error paths must tear them down.
	fail := func(err error) (*Cluster, error) {
		c.Stop()
		return nil, err
	}
	for id := range cp.Stores {
		if c.node(id) == nil {
			return fail(fmt.Errorf("engine: checkpoint covers unknown node %d", id))
		}
	}
	for _, n := range c.nodeList() {
		// The scheduler cursor starts at the cut so quiescence checks and
		// crash triggers measure post-checkpoint progress.
		n.restore(cp.Stores[n.id], cp.Routing, cp.Seq)
	}
	// Resume the total order after the checkpointed prefix and the tail.
	nextSeq := cp.Seq
	nextTxn := cp.NextTxn
	for _, b := range tail {
		if b.Seq != nextSeq {
			return fail(fmt.Errorf("engine: tail batch %d out of order, want %d", b.Seq, nextSeq))
		}
		nextSeq++
		for _, r := range b.Txns {
			if r.ID >= nextTxn {
				nextTxn = r.ID + 1
			}
		}
	}
	// Every replica agrees on where the order resumes; the recovered
	// cluster's sequencer starts a fresh epoch-0 group (client sessions do
	// not survive whole-cluster recovery — the front-ends are new too).
	c.seq.SetNext(nextSeq, nextTxn)
	c.startAll()
	if err := c.ReplayBatches(tail); err != nil {
		return fail(err)
	}
	return c, nil
}

// ReplayBatches re-delivers pre-formed, totally ordered batches to every
// node, preserving the original batch boundaries and transaction ids —
// the property that makes replayed routing identical to the original run.
// It blocks until the cluster quiesces.
func (c *Cluster) ReplayBatches(batches []*tx.Batch) error {
	if len(batches) == 0 {
		return nil
	}
	for _, b := range batches {
		for _, n := range c.cfg.Nodes {
			if err := c.tr.Send(network.Message{
				From: LeaderNode, To: n, Type: network.MsgSeqDeliver,
				Seq: b.Seq, Batch: b,
			}); err != nil {
				return err
			}
		}
	}
	// Recover has already moved the sequencer past the tail, so the drain
	// waits for every node to schedule the last replayed batch too.
	if err := c.DrainDetail(30 * time.Second); err != nil {
		return fmt.Errorf("engine: replay did not quiesce: %w", err)
	}
	return nil
}

// TailSince returns the sealed batches with sequence ≥ seq — the input
// after a checkpoint, for handing to Recover. The sequencer's sealed log
// is the cluster's one command log, and it starts at the newest
// checkpoint: before the first one a group without standbys keeps none.
// A worker has no sequencer here; its journal is its replay source.
func (c *Cluster) TailSince(seq uint64) []*tx.Batch {
	if c.seq == nil {
		return nil
	}
	return c.seq.Since(seq)
}
