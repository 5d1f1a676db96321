package engine

import (
	"fmt"
	"time"

	"hermes/internal/metrics"
	"hermes/internal/network"
	"hermes/internal/sequencer"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// WorkerConfig assembles one node of a multi-process cluster. Every worker
// process runs exactly one engine node over a socket transport; the
// total-order leader runs as a standalone sequencer replica in one of the
// processes (the cluster harness puts it next to worker 0).
type WorkerConfig struct {
	// Self is this process's node id; Workers is the full active node set
	// across all processes (every replica must agree on it).
	Self    tx.NodeID
	Workers []tx.NodeID
	// Leader is the transport id of the sequencer leader (LeaderNode).
	Leader tx.NodeID
	// Transport is the process's socket transport, already listening.
	// NewWorker wraps it in the reliable layer; the worker owns both and
	// closes them on Stop.
	Transport network.Transport
	// NetStats is the transport's byte/message accounting.
	NetStats *network.Stats
	// Policy builds the local routing replica; it must be the identical
	// construction in every process (and in the in-process emulation that
	// digests are compared against).
	Policy PolicyFactory
	// Incarnation, Journal, AckGate, Floors, and Recovered plumb the
	// delivery journal into the reliable layer: see network.ReliableOpts.
	Incarnation uint64
	Journal     func(network.Message)
	AckGate     func(func())
	Floors      map[tx.NodeID]network.LinkFloor
	Recovered   []network.Message
	// Executors, ExecMode, Window: as in Config.
	Executors int
	ExecMode  string
	Window    time.Duration
	// RetryTimeout/RetryCap tune the session front-end's resend pacing
	// (zero = front-end defaults).
	RetryTimeout time.Duration
	RetryCap     time.Duration
	// RetransmitBase/RetransmitCap tune the reliable layer's retransmit
	// pacing (zero = in-process defaults; see ReliableOpts).
	RetransmitBase time.Duration
	RetransmitCap  time.Duration
	// Telemetry, if non-nil, registers this process's gauges (served at
	// the control endpoint's /metrics).
	Telemetry *telemetry.Telemetry
}

// NewWorker assembles a distributed single-node cluster but does not start
// it: recovery must seed storage (SeedLocal) before the node consumes its
// replayed input. Call StartWorker when the process is ready to run.
func NewWorker(wc WorkerConfig) (*Cluster, error) {
	if wc.Policy == nil {
		return nil, fmt.Errorf("engine: worker %d: no policy factory", wc.Self)
	}
	if wc.Transport == nil {
		return nil, fmt.Errorf("engine: worker %d: no transport", wc.Self)
	}
	if len(wc.Workers) == 0 {
		return nil, fmt.Errorf("engine: worker %d: empty worker set", wc.Self)
	}
	sendTo := make([]tx.NodeID, 0, len(wc.Workers)+1)
	for _, id := range wc.Workers {
		if id != wc.Self {
			sendTo = append(sendTo, id)
		}
	}
	sendTo = append(sendTo, wc.Leader)
	rel := network.NewReliableWith(wc.Transport, network.ReliableOpts{
		RecvFor:        []tx.NodeID{wc.Self},
		SendTo:         sendTo,
		Incarnation:    wc.Incarnation,
		Journal:        wc.Journal,
		AckGate:        wc.AckGate,
		Floors:         wc.Floors,
		Recovered:      wc.Recovered,
		RetransmitBase: wc.RetransmitBase,
		RetransmitCap:  wc.RetransmitCap,
	})
	c := &Cluster{
		cfg: Config{
			Nodes:     []tx.NodeID{wc.Self},
			Active:    append([]tx.NodeID(nil), wc.Workers...),
			Policy:    wc.Policy,
			Executors: wc.Executors,
			ExecMode:  wc.ExecMode,
			Window:    wc.Window,
			Telemetry: wc.Telemetry,
		},
		tr:          rel,
		rel:         rel,
		distributed: true,
		self:        wc.Self,
		netStats:    wc.NetStats,
		nodes:       make(map[tx.NodeID]*Node, 1),
		order:       []tx.NodeID{wc.Self},
		pending:     make(map[tx.TxnID]chan struct{}),
		waiters:     make(map[*tx.Request]chan struct{}),
		seqWaiters:  make(map[uint64]chan struct{}),
		active:      append([]tx.NodeID(nil), wc.Workers...),
		crashed:     make(map[tx.NodeID]time.Time),
		seqCrashed:  tx.NoNode,
		accounted:   make(map[tx.TxnID]struct{}),
		start:       time.Now(),
	}
	if c.cfg.Window <= 0 {
		c.cfg.Window = time.Second
	}
	c.collector = metrics.NewCollector(c.start, c.cfg.Window)
	c.tracer = wc.Telemetry.Tracer()
	// Always a session front-end: across processes the leader's dedup and
	// the client-side retry queue are what make submission exactly-once.
	c.fes = map[tx.NodeID]*sequencer.Frontend{
		wc.Self: sequencer.NewSessionFrontend(wc.Self, wc.Leader, c.tr, nil,
			wc.RetryTimeout, wc.RetryCap),
	}
	c.nodes[wc.Self] = newNode(wc.Self, c, wc.Policy(c.cfg.Active))
	c.registerGauges()
	return c, nil
}

// StartWorker starts the worker's node loops; for a recovering process the
// reliable layer then begins replaying the journaled input.
func (c *Cluster) StartWorker() { c.startAll() }

// Reliable exposes the worker's reliable layer (the cluster harness's
// control plane reads its backlog).
func (c *Cluster) Reliable() *network.Reliable { return c.rel }

// SeedLocal writes k into the local store iff the local routing replica
// says k's home partition is this node, reporting whether it did. Every
// process seeds from the same deterministic record stream; the replicas
// agree on placement, so each record lands in exactly one process.
func (c *Cluster) SeedLocal(k tx.Key, v []byte) bool {
	n := c.node(c.order[0])
	if n.policy.Placement().Home(k) != n.id {
		return false
	}
	n.store.Write(k, v)
	return true
}

// WorkerQuiesceInfo is one worker process's quiescence snapshot. The
// cluster is quiescent when, in a single sweep with the leader flushed and
// idle at sealed sequence S: every worker's Scheduled == S, and every
// other field is zero. Receiver-side locks are held from scheduling until
// remote pushes and write-backs are applied, so in-flight cross-node
// messages keep QueuedLockKeys non-zero somewhere until they land.
type WorkerQuiesceInfo struct {
	// Scheduled is 1 + the sequence of the last batch the scheduler
	// consumed (== the leader's next sequence when caught up).
	Scheduled uint64
	// QueuedLockKeys is the conservative lock manager's queued-key count.
	QueuedLockKeys int
	// Pending counts transactions submitted here and not yet completed.
	Pending int
	// Unacked is the session front-end's unacknowledged submission count.
	Unacked int
	// Backlog is the reliable layer's undelivered local input (non-zero
	// while a recovering process is still replaying its journal).
	Backlog int64
	// Refused names the first out-of-order batch the local node refused
	// ("" if none): why Scheduled will never reach the leader's sequence.
	Refused string `json:",omitempty"`
}

// WorkerQuiesce snapshots the local quiescence state for the harness's
// cross-process drain sweep.
func (c *Cluster) WorkerQuiesce() WorkerQuiesceInfo {
	n := c.node(c.order[0])
	info := WorkerQuiesceInfo{
		Scheduled:      n.Scheduled(),
		QueuedLockKeys: n.locks.QueuedKeys(),
		Pending:        c.Pending(),
		Refused:        n.refusal(),
	}
	if fe := c.fes[c.order[0]]; fe != nil {
		info.Unacked = fe.Unacked()
	}
	if c.rel != nil {
		info.Backlog = c.rel.Backlog(c.order[0])
	}
	return info
}
