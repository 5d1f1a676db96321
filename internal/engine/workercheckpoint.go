package engine

import (
	"fmt"

	"hermes/internal/network"
	"hermes/internal/router"
	"hermes/internal/tx"
)

// WorkerCheckpoint is one worker process's durable recovery point: the cut
// a restarted process restores before replaying its journal suffix. It is
// consistent by construction only when captured settled (see CaptureWorker)
// — at that moment the store, routing replica, and scheduler cursor are all
// pure functions of the delivered input prefix.
type WorkerCheckpoint struct {
	// Node is the worker's id; a checkpoint restored into the wrong
	// process would silently diverge, so restore verifies it.
	Node tx.NodeID
	// Store is the node's record snapshot.
	Store map[tx.Key][]byte
	// Routing is the local placement replica (override map, active set,
	// fusion table with replacement order).
	Routing *router.PlacementState
	// Scheduled is the scheduler cursor (1 + last consumed batch).
	Scheduled uint64
	// Delivered is the journal's absolute frame count at the cut: the
	// checkpoint covers exactly frames [0, Delivered), so restart replays
	// RecoveredSince(Delivered) and the journal may rotate at Delivered.
	Delivered uint64
	// Floors records, per sender, the highest (incarnation, link)
	// journaled at the cut. They seed the reliable layer's dedup
	// watermarks for senders whose frames the rotation dropped; without
	// them a restarted link would reset to expected=1 and park every live
	// retransmit in the future buffer forever.
	Floors map[tx.NodeID]network.LinkFloor
}

// capture snapshots the node's checkpointable state: its store, its routing
// replica and its scheduler cursor. It is a consistent cut only while the
// node is settled.
func (n *Node) capture() *WorkerCheckpoint {
	return &WorkerCheckpoint{
		Node:      n.id,
		Store:     n.store.Checkpoint(),
		Routing:   n.policy.Placement().Snapshot(),
		Scheduled: n.Scheduled(),
	}
}

// restore loads a captured cut into a node that has not started: the input
// it then consumes — a journal suffix, a rewound delivery log, a replayed
// tail — re-derives everything after the cut.
func (n *Node) restore(store map[tx.Key][]byte, routing *router.PlacementState, scheduled uint64) {
	n.store.Restore(store)
	if routing != nil {
		n.policy.Placement().Restore(routing)
	}
	n.scheduled.Store(scheduled)
}

// CaptureWorker snapshots the worker's checkpointable state. The worker
// must be settled — nothing queued, pending, or backlogged — because only
// then is the visible state a function of the delivered prefix alone: a
// partially executed transaction keeps its keys queued, so QueuedLockKeys
// == 0 (the Granter covers both exec modes) certifies no half-applied
// writes. The caller pauses the feed around the capture and fills in
// Delivered/Floors from the journal under the same pause.
func (c *Cluster) CaptureWorker() (*WorkerCheckpoint, error) {
	n := c.node(c.order[0])
	if q := c.quiesceInfo(n); !q.Settled() {
		return nil, fmt.Errorf("engine: worker %d not settled for checkpoint: %+v", n.id, q)
	}
	return n.capture(), nil
}

// RestoreWorkerState loads a checkpoint into a freshly built (not yet
// started) worker. The caller then starts the worker and the reliable layer
// replays the journal suffix on top.
func (c *Cluster) RestoreWorkerState(cp *WorkerCheckpoint) error {
	n := c.node(c.order[0])
	if cp.Node != n.id {
		return fmt.Errorf("engine: checkpoint is for node %d, this worker is %d", cp.Node, n.id)
	}
	n.restore(cp.Store, cp.Routing, cp.Scheduled)
	return nil
}
