package hermes

import (
	"time"

	"hermes/internal/engine"
)

// Checkpoint is a consistent snapshot of the whole cluster (§4.3): the
// storage of every node after a batch boundary plus a snapshot of the
// deterministic routing state at that boundary. Taking one also truncates
// the in-memory command log behind it, bounding log growth.
type Checkpoint = engine.Checkpoint

// Checkpoint quiesces the database and snapshots it. The returned
// checkpoint, together with the command-log tail retained after it (see
// Tail), is sufficient to rebuild the exact cluster state.
func (db *DB) Checkpoint(timeout time.Duration) (*Checkpoint, error) {
	return db.cluster.Checkpoint(timeout)
}

// Recover reopens a database from a checkpoint taken by an identically
// configured instance: storage and routing state (fusion tables,
// placement) are restored from the snapshot. The options must match the
// original instance (same nodes, policy, and partitioning), otherwise
// post-recovery routing diverges from the original run.
func Recover(opts Options, cp *Checkpoint) (*DB, error) {
	return RecoverWithTail(opts, cp, nil)
}

// RecoverWithTail is Recover plus re-execution of the post-checkpoint
// input tail (as returned by Tail on the original instance): the restored
// cluster replays the batches in order, deterministically reproducing the
// state the original reached after them.
func RecoverWithTail(opts Options, cp *Checkpoint, tail []*Batch) (*DB, error) {
	opts, cfg, err := engineConfig(opts)
	if err != nil {
		return nil, err
	}
	cl, err := engine.Recover(cfg, cp, tail)
	if err != nil {
		return nil, err
	}
	return &DB{cluster: cl, opts: opts}, nil
}
