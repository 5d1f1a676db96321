package engine

import (
	"fmt"

	"hermes/internal/network"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// WorkerConfig assembles one node of a multi-process cluster. Every worker
// process runs exactly one engine node over a socket transport. One process
// (the cluster harness picks worker 0's) also hosts the total-order leader,
// a sequencer replica at LeaderNode that shares the worker's transport and
// reliable layer.
type WorkerConfig struct {
	// Self is this process's node id; Workers is the full active node set
	// across all processes (every replica must agree on it).
	Self    tx.NodeID
	Workers []tx.NodeID
	// Transport is the process's socket transport, already listening and
	// hosting Self (and LeaderNode when HostsLeader is set). NewWorker
	// wraps it in the reliable layer; the worker owns both and closes them
	// on Stop.
	Transport network.Transport
	// NetStats is the transport's byte/message accounting.
	NetStats *network.Stats
	// HostsLeader makes the reliable layer receive for LeaderNode too: the
	// caller runs the leader on Reliable().
	HostsLeader bool
	// Link configures the reliable layer over Transport: the delivery
	// journal, and the incarnation, floors and recovered history of a
	// restarted process (see network.ReliableOpts). NewWorker fills in
	// RecvFor.
	Link network.ReliableOpts
	// Policy builds the local routing replica; it must be the identical
	// construction in every process (and in the in-process emulation that
	// digests are compared against).
	Policy PolicyFactory
	// Telemetry, if non-nil, registers this process's gauges (served at
	// the control endpoint's /metrics).
	Telemetry *telemetry.Telemetry
}

// NewWorker assembles a single-node cluster process but does not start it:
// recovery must seed storage (SeedRows) before the node consumes its
// replayed input. Call StartWorker when the process is ready to run.
func NewWorker(wc WorkerConfig) (*Cluster, error) {
	cfg := Config{
		Nodes:     []tx.NodeID{wc.Self},
		Active:    append([]tx.NodeID(nil), wc.Workers...),
		Policy:    wc.Policy,
		Telemetry: wc.Telemetry,
	}
	if err := cfg.check(); err != nil {
		return nil, fmt.Errorf("engine: worker %d: %w", wc.Self, err)
	}
	if wc.Transport == nil {
		return nil, fmt.Errorf("engine: worker %d: no transport", wc.Self)
	}
	if len(wc.Workers) == 0 {
		return nil, fmt.Errorf("engine: worker %d: empty worker set", wc.Self)
	}
	link := wc.Link
	link.RecvFor = []tx.NodeID{wc.Self}
	if wc.HostsLeader {
		link.RecvFor = append(link.RecvFor, LeaderNode)
	}
	rel := network.NewReliableWith(wc.Transport, link)
	return newCluster(cfg, rel, rel, wc.NetStats, nil), nil
}

// StartWorker starts the worker's node loops; for a recovering process the
// reliable layer then begins replaying the journaled input.
func (c *Cluster) StartWorker() { c.startAll() }

// Reliable exposes the worker's reliable layer: the cluster harness's
// control plane reads its backlog, and runs the co-hosted leader on it.
func (c *Cluster) Reliable() *network.Reliable { return c.rel }

// WorkerQuiesceInfo is one node's quiescence snapshot. The cluster is
// quiescent when, in a single sweep with the leader flushed and idle at
// sealed sequence S, every node's Scheduled == S and every node is Settled.
// A role stays admitted until remote pushes and write-backs are applied,
// so in-flight cross-node messages keep QueuedLockKeys non-zero somewhere
// until they land.
type WorkerQuiesceInfo struct {
	// Scheduled is 1 + the sequence of the last batch the scheduler
	// consumed (== the leader's next sequence when caught up).
	Scheduled uint64
	// QueuedLockKeys counts the transactions admitted at the node and not
	// yet released (the name predates the per-key queues; the benchmark
	// reads it).
	QueuedLockKeys int
	// Pending counts transactions submitted in this process and not yet
	// completed.
	Pending int
	// Unacked is the node's front-end's unacknowledged submission count.
	Unacked int
	// Backlog is the reliable layer's undelivered local input (non-zero
	// while a recovering process is still replaying its journal).
	Backlog int64
	// Refused names the first out-of-order batch the local node refused
	// ("" if none): why Scheduled will never reach the leader's sequence.
	Refused string `json:",omitempty"`
}

// Settled reports whether nothing is queued, in flight, unacknowledged or
// undelivered at the node: the state in which what it holds is a function
// of the batches it has scheduled and nothing else. Every "is it quiet?"
// decision — Drain, the harness's cross-process sweep, a worker checkpoint,
// a graceful shutdown — is this test (plus, where the sealed sequence is
// known, Scheduled == S).
func (q WorkerQuiesceInfo) Settled() bool {
	return q.QueuedLockKeys == 0 && q.Pending == 0 && q.Unacked == 0 && q.Backlog == 0
}

// WorkerQuiesce snapshots the local quiescence state for the harness's
// cross-process drain sweep.
func (c *Cluster) WorkerQuiesce() WorkerQuiesceInfo {
	return c.quiesceInfo(c.node(c.order[0]))
}

func (c *Cluster) quiesceInfo(n *Node) WorkerQuiesceInfo {
	info := WorkerQuiesceInfo{
		Scheduled:      n.Scheduled(),
		QueuedLockKeys: n.qx.Outstanding(),
		Pending:        c.Pending(),
		Unacked:        c.fes[n.id].Unacked(),
		Refused:        n.refusal(),
	}
	if c.rel != nil {
		info.Backlog = c.rel.Backlog(n.id)
	}
	return info
}
