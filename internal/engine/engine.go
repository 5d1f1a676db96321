// Package engine is the deterministic distributed execution engine: the
// Calvin-style node stack of Fig. 4 (sequencer front-end → scheduler →
// executors → storage) extended with Hermes's single-master data-fusion
// execution (§3.1-3.2), on-the-fly record migration, fusion-table
// eviction write-backs (§4.1), logic aborts with UNDO (§4.2), command-log
// recovery (§4.3), and dynamic machine provisioning through totally
// ordered control transactions (§3.3).
//
// New runs the whole cluster in one process: every node is a goroutine
// group with its own storage, admission queues, and routing-policy replica,
// connected by a transport that injects configurable network latency and
// counts bytes. NewWorker runs one such node per OS process over a socket
// transport; the node, its scheduler and the way a client is answered are
// the same code in both. Which routing policy a cluster runs (Calvin, G-Store+,
// LEAP, T-Part, Hermes, ...) is the only difference between the systems
// the paper compares — everything else is shared, as in the paper's
// evaluation where all baselines were built on the same code base.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/fusion"
	"hermes/internal/metrics"
	"hermes/internal/network"
	"hermes/internal/router"
	"hermes/internal/sequencer"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// PolicyFactory builds one routing-policy replica for a node. It is
// called once per node with the identical arguments; the returned replicas
// must be independent (no shared mutable state) and deterministic.
type PolicyFactory func(active []tx.NodeID) router.Policy

// Config assembles a cluster.
type Config struct {
	// Nodes is the total node set, including standby nodes that may be
	// activated later by provisioning (Fig. 14's scale-out target starts
	// as a standby).
	Nodes []tx.NodeID
	// Active is the initially active subset (defaults to all of Nodes).
	Active []tx.NodeID
	// Policy builds each node's routing replica.
	Policy PolicyFactory
	// Seq configures request batching and the total-order service's
	// fault-tolerance profile (Seq.Standbys > 0 runs standby sequencer
	// replicas with replicated delivery and automatic failover).
	Seq sequencer.Config
	// Links is the in-process link model: it decides each cross-node
	// message's delay, and whether it is dropped or duplicated (nil =
	// immediate delivery). hermes.Options.NetLatency installs a fixed
	// latency here and the chaos harness its seeded fault schedule
	// (chaos.Model). A model that drops or duplicates needs the reliable
	// layer (below), which restores the Transport contract over it.
	Links network.LinkModel
	// WrapTransport, if non-nil, wraps the cluster's base transport before
	// any component uses it. Tests substitute fake transports here;
	// wrappers must preserve the Transport contract (per-link FIFO order,
	// asynchronous delivery) — unless the cluster also runs the reliable
	// layer, which restores the contract over lossy wrappers.
	WrapTransport func(network.Transport) network.Transport
	// Reliable interposes the reliable-delivery layer (sequence numbers,
	// acks, retransmission, dedup, and per-destination delivery logs)
	// between the wrapped transport and every engine component. It is
	// required for CrashNode/RestartNode — the delivery log is what lets a
	// restarted node re-receive the input it lost — and for running over
	// transports that drop or duplicate messages.
	Reliable bool
	// Journal, when set with Reliable, gives each node's delivery log a
	// durable journal that also gates its acks (ReliableOpts.Journal; an
	// untyped nil return = no journal for that node). The chaos harness
	// uses it to run real fault-injected journals as shadows of the
	// in-memory delivery logs.
	Journal func(tx.NodeID) network.Durability
	// StorageDelay is an optional per-record storage access cost,
	// emulating buffer-pool pressure. Zero for unit tests.
	StorageDelay time.Duration
	// Executors bounds how many roles that sleep (ExecCost,
	// StorageDelay) a node executes at once: its executor slots, the
	// paper's per-node cores (its nodes are 4-core machines). A node's key
	// queues always drain on one bucket worker, whatever Executors is, and
	// roles that do not sleep run there without a slot. Waiting in a key
	// queue or for remote records does not occupy a slot, so the bound
	// cannot deadlock. Zero means the default, 4; New refuses a negative
	// count.
	Executors int
	// ExecCost is the simulated CPU time consumed by executing one
	// transaction's logic while holding an executor slot. Together with
	// Executors it defines a node's saturation throughput, which is what
	// makes hot-node overload visible in the emulation. Zero for unit
	// tests.
	ExecCost time.Duration
	// Window is the metrics throughput window (default 1s).
	Window time.Duration
	// CommitHook, if non-nil, is invoked once per committed user
	// transaction at its committing node with the executed route. It is
	// how external look-back controllers (Clay's planner, §5.2.1)
	// observe the workload; it must be fast or hand off to a channel.
	CommitHook func(route *router.Route)
	// Telemetry, if non-nil, receives lifecycle trace events and gets the
	// cluster's gauges registered into its registry. Telemetry is strictly
	// observation-only: no engine decision reads it, so enabling it cannot
	// change the deterministic outcome (enforced by the chaos harness's
	// telemetry-equivalence check).
	Telemetry *telemetry.Telemetry
}

// LeaderNode is the transport address of the total-order leader. The
// emulation models the paper's dedicated Zab leader machine there, and
// charges every hop to it as network traffic; a multi-process cluster
// co-hosts the leader with worker 0, on worker 0's transport and reliable
// layer, so its hops to worker 0 stay inside the process.
const LeaderNode tx.NodeID = -64

// Cluster is the engine's handle on the nodes one process hosts: all of
// them in the emulation (New), exactly one in a cluster process (NewWorker).
type Cluster struct {
	cfg Config
	// tr is what every component sends and receives through: the channel
	// transport in the emulation (behind Config.WrapTransport's wrapper and
	// the reliable layer when configured), the reliable layer over the
	// socket transport in a worker.
	tr network.Transport
	// rel is the reliable-delivery layer (nil in an emulation without
	// Config.Reliable); crash/restart and lossy-link tolerance depend on it.
	rel *network.Reliable
	// seq is the in-process total-order service: the leader replica plus
	// Config.Seq.Standbys standby replicas. Nil in a worker, whose leader
	// runs in another process.
	seq *sequencer.Group
	// fes holds one persistent sequencer front-end per hosted node — which
	// makes it the locality test as well: a client whose front-end is in
	// here is answered through memory, any other by MsgTxnDone. With
	// standbys configured, and always in a worker, these are session
	// front-ends that retry and redirect unacknowledged submissions.
	fes map[tx.NodeID]*sequencer.Frontend
	// nodesMu guards nodes: RestartNode swaps in a fresh *Node while the
	// rest of the cluster keeps running.
	nodesMu   sync.RWMutex
	nodes     map[tx.NodeID]*Node
	order     []tx.NodeID
	collector *metrics.Collector
	// tracer is Config.Telemetry's tracer (nil when telemetry is off);
	// every Emit through a nil tracer is a single-branch no-op.
	tracer *telemetry.Tracer
	// netStats is the byte/message accounting of the transport under tr.
	netStats *network.Stats

	mu sync.Mutex
	// waiters holds the completion channel of every transaction submitted
	// here and not yet answered, under the (Client, ClientSeq) stamp its
	// front-end gave it: registered before the request is transmitted,
	// closed and removed by the first answer. An answer that finds no entry
	// is a duplicate (a replayed commit, a re-sent MsgTxnDone) and a no-op.
	waiters map[clientKey]chan struct{}
	active  []tx.NodeID
	stopped bool
	// crashed maps a down node to when it was killed (Reliable mode only).
	crashed map[tx.NodeID]time.Time
	// seqCrashed is the killed sequencer replica while a leader crash is
	// outstanding (NoNode otherwise).
	seqCrashed tx.NodeID
	// accounted dedups metric recording per transaction: replay after a
	// restart re-commits transactions at the recovering node, and those
	// must not count twice. A replay starts at a checkpoint and re-commits
	// only from its NextTxn on, so the set exists only once a checkpoint
	// in Reliable mode has set accounting, and each checkpoint prunes it.
	accounted  map[tx.TxnID]struct{}
	accounting atomic.Bool
	// lastCP is the most recent successful checkpoint; RestartNode replays
	// from it.
	lastCP *Checkpoint
}

// clientKey is a request's front-end stamp (tx.Request.Client, ClientSeq).
type clientKey struct {
	client tx.NodeID
	seq    uint64
}

// New assembles and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	c, err := build(cfg)
	if err != nil {
		return nil, err
	}
	c.startAll()
	return c, nil
}

// build assembles a cluster without starting any goroutines; recovery
// needs the window between construction and start to restore state.
func build(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("engine: no nodes")
	}
	if len(cfg.Active) == 0 {
		cfg.Active = cfg.Nodes
	}
	if err := cfg.check(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	all := append(append([]tx.NodeID(nil), cfg.Nodes...), sequencer.GroupNodes(LeaderNode, cfg.Seq.Standbys)...)
	base := network.NewChanTransport(all, cfg.Links)
	var tr network.Transport = base
	if cfg.WrapTransport != nil {
		tr = cfg.WrapTransport(base)
	}
	var rel *network.Reliable
	if cfg.Reliable {
		rel = network.NewReliableWith(tr, network.ReliableOpts{
			RecvFor: all,
			Journal: cfg.Journal,
		})
		tr = rel
	}
	// Every node (including standbys) receives the full batch stream so
	// its routing replica stays in sync; only active nodes are routed to.
	seq := sequencer.NewGroup(LeaderNode, tr, cfg.Nodes, cfg.Seq)
	c := newCluster(cfg, tr, rel, base.Stats(), seq)
	seq.SetOnFailover(func(leader tx.NodeID, epoch uint64) {
		c.tracer.Emit(telemetry.ClusterNode, 0, telemetry.PhaseFailover, int64(epoch))
		for _, fe := range c.fes {
			fe.SetLeader(leader)
		}
	})
	return c, nil
}

// check validates what both assemblies need of a Config.
func (cfg *Config) check() error {
	if cfg.Policy == nil {
		return fmt.Errorf("no policy factory")
	}
	if cfg.Executors < 0 {
		return fmt.Errorf("negative Executors (%d): a node needs at least one executor", cfg.Executors)
	}
	return nil
}

// newCluster is the one place a Cluster is put together: cfg.Nodes are the
// nodes this process hosts, tr/rel/netStats the transport stack they share,
// seq the in-process sequencer (nil when the leader is another process, in
// which case the front-ends are session front-ends — across processes the
// leader's dedup and the client-side retry queue are what make submission
// exactly-once). Nothing is started.
func newCluster(cfg Config, tr network.Transport, rel *network.Reliable, netStats *network.Stats, seq *sequencer.Group) *Cluster {
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	c := &Cluster{
		cfg:        cfg,
		tr:         tr,
		rel:        rel,
		seq:        seq,
		netStats:   netStats,
		fes:        make(map[tx.NodeID]*sequencer.Frontend, len(cfg.Nodes)),
		nodes:      make(map[tx.NodeID]*Node, len(cfg.Nodes)),
		order:      append([]tx.NodeID(nil), cfg.Nodes...),
		waiters:    make(map[clientKey]chan struct{}),
		active:     append([]tx.NodeID(nil), cfg.Active...),
		crashed:    make(map[tx.NodeID]time.Time),
		seqCrashed: tx.NoNode,
		collector:  metrics.NewCollector(time.Now(), cfg.Window),
		tracer:     cfg.Telemetry.Tracer(),
	}
	for _, id := range cfg.Nodes {
		if seq == nil || cfg.Seq.Standbys > 0 {
			c.fes[id] = sequencer.NewSessionFrontend(id, LeaderNode, tr)
		} else {
			c.fes[id] = sequencer.NewFrontend(id, LeaderNode, tr)
		}
		c.nodes[id] = newNode(id, c, cfg.Policy(cfg.Active))
	}
	c.registerGauges()
	return c
}

// fusionStats shortens the gauge closures below.
type fusionStats = fusion.Stats

// registerGauges publishes the cluster's live state into the telemetry
// registry. Every closure reads through c.node(id) / c.rel so a node
// swapped by RestartNode is picked up automatically; all reads are
// observation-only.
func (c *Cluster) registerGauges() {
	reg := c.cfg.Telemetry.Registry()
	if reg == nil {
		return
	}
	col := c.collector
	reg.Gauge("hermes_txns_committed_total", "committed transactions",
		func() float64 { return float64(col.Committed()) })
	reg.Gauge("hermes_txns_aborted_total", "logic-aborted transactions",
		func() float64 { return float64(col.Aborted()) })
	reg.Gauge("hermes_migration_records_total", "cumulative migrated records",
		func() float64 { return float64(col.Migrations()) })
	reg.Gauge("hermes_migration_bytes_total", "cumulative migrated payload bytes landed",
		func() float64 { return float64(col.MigrationBytes()) })
	reg.Gauge("hermes_migrations_in_flight", "transactions currently executing with attached migrations",
		func() float64 { return float64(col.MigrationsInFlight()) })
	reg.Gauge("hermes_remote_reads_total", "records read across the network",
		func() float64 { return float64(col.RemoteReads()) })
	reg.Gauge("hermes_node_crashes_total", "node kills",
		func() float64 { return float64(col.Crashes()) })
	reg.Gauge("hermes_node_recoveries_total", "node restarts",
		func() float64 { return float64(col.Recoveries()) })
	reg.Gauge("hermes_routing_batches_total", "batch-routing invocations across replicas",
		func() float64 { return float64(col.Routing().Batches) })
	reg.Gauge("hermes_routing_us_per_batch", "mean prescient-routing cost per batch (microseconds)",
		func() float64 { return float64(col.Routing().PerBatch) / 1e3 })
	reg.Gauge("hermes_queue_plan_us_per_batch", "mean queue-planning cost per batch (microseconds)",
		func() float64 { return float64(col.QueuePlan().PerBatch) / 1e3 })

	if c.seq != nil {
		reg.Gauge("hermes_seq_batches_total", "batches sealed by the total-order group, across failovers",
			func() float64 { return float64(c.seq.Stats().Batches) })
		reg.Gauge("hermes_seq_batch_fill", "last sealed batch size relative to the configured batch size",
			func() float64 { return c.seq.Stats().LastFill })
		reg.Gauge("hermes_seq_pending", "requests waiting at the leader for the next flush",
			func() float64 { return float64(c.seq.Stats().Pending) })
		reg.Gauge("hermes_seq_epoch", "current sequencer leadership epoch",
			func() float64 { return float64(c.seq.Epoch()) })
		reg.Gauge("hermes_seq_failovers_total", "completed sequencer leader promotions",
			func() float64 { return float64(c.seq.Failovers()) })
		reg.Gauge("hermes_seq_heartbeat_misses_total", "leader heartbeat misses observed by standby sequencers",
			func() float64 { return float64(c.seq.HeartbeatMisses()) })
	}

	netStats := c.netStats
	reg.Gauge("hermes_net_messages_total", "transport messages sent",
		func() float64 { m, _ := netStats.Totals(); return float64(m) })
	reg.Gauge("hermes_net_bytes_total", "transport payload bytes sent",
		func() float64 { _, b := netStats.Totals(); return float64(b) })
	if c.rel != nil {
		rel := c.rel
		reg.Gauge("hermes_transport_retransmits_total", "messages re-sent by the reliable layer",
			func() float64 { return float64(rel.Stats().Retransmits) })
		reg.Gauge("hermes_transport_dups_dropped_total", "duplicate messages discarded by the reliable layer",
			func() float64 { return float64(rel.Stats().DupsDropped) })
		reg.Gauge("hermes_transport_unacked", "sender-side unacknowledged messages (retransmission window)",
			func() float64 { u, _ := rel.Depths(); return float64(u) })
		reg.Gauge("hermes_transport_backlog", "receiver-side logged messages not yet handed to consumers",
			func() float64 { _, b := rel.Depths(); return float64(b) })
	}

	for _, id := range c.cfg.Nodes {
		id := id
		label := fmt.Sprintf(`{node="%d"}`, id)
		reg.Gauge("hermes_sched_queue_depth"+label, "batches waiting in the node's scheduler queue",
			func() float64 {
				if n := c.node(id); n != nil {
					return float64(len(n.batches))
				}
				return 0
			})
		reg.Gauge("hermes_sched_seq"+label, "1 + sequence of the last batch the node's scheduler consumed",
			func() float64 {
				if n := c.node(id); n != nil {
					return float64(n.Scheduled())
				}
				return 0
			})
		reg.Gauge("hermes_node_busy_seconds_total"+label, "cumulative executor busy time",
			func() float64 { return col.BusyTotal(int(id)).Seconds() })
		reg.Gauge("hermes_exec_queue_depth"+label, "keys with a non-empty per-key operation queue",
			func() float64 {
				if n := c.node(id); n != nil {
					return float64(n.qx.QueuedKeys())
				}
				return 0
			})
		reg.Gauge("hermes_exec_worker_drained_total"+label, "transactions whose every key the node's bucket worker granted",
			func() float64 {
				if n := c.node(id); n != nil {
					return float64(n.qx.Drained())
				}
				return 0
			})
		fusionStat := func(pick func(fusionStats) int64) func() float64 {
			return func() float64 {
				if n := c.node(id); n != nil {
					if f := n.policy.Placement().Fusion; f != nil {
						return float64(pick(f.Stats()))
					}
				}
				return 0
			}
		}
		reg.Gauge("hermes_fusion_occupancy"+label, "fusion-table entries currently tracked",
			fusionStat(func(s fusionStats) int64 { return s.Size }))
		reg.Gauge("hermes_fusion_inserts_total"+label, "fusion-table insertions",
			fusionStat(func(s fusionStats) int64 { return s.Inserts }))
		reg.Gauge("hermes_fusion_evictions_total"+label, "fusion-table capacity evictions",
			fusionStat(func(s fusionStats) int64 { return s.Evictions }))
		reg.Gauge("hermes_fusion_deletes_total"+label, "fusion-table deletions (records migrated home)",
			fusionStat(func(s fusionStats) int64 { return s.Deletes }))
		reg.Gauge("hermes_fusion_owner_moves_total"+label, "tracked keys re-owned to a different node (hot-set churn)",
			fusionStat(func(s fusionStats) int64 { return s.OwnerMoves }))
	}
}

func (c *Cluster) startAll() {
	for _, n := range c.nodeList() {
		n.start()
	}
	if c.seq != nil {
		c.seq.Start()
	}
}

// noteLeader folds a sequencer epoch announcement observed by a node
// into the cluster view; when the view advances, every front-end is
// redirected (and resends its unacknowledged queue to the new leader).
func (c *Cluster) noteLeader(leader tx.NodeID, epoch uint64) {
	if c.seq == nil {
		return // the leader's process manages its own epoch
	}
	if c.seq.ObserveEpoch(leader, epoch) {
		for _, fe := range c.fes {
			fe.SetLeader(leader)
		}
	}
}

// node returns the current *Node for id (nil if unknown) under the swap
// lock; RestartNode may replace the instance at any time.
func (c *Cluster) node(id tx.NodeID) *Node {
	c.nodesMu.RLock()
	defer c.nodesMu.RUnlock()
	return c.nodes[id]
}

// nodeList returns the current node instances in node order.
func (c *Cluster) nodeList() []*Node {
	c.nodesMu.RLock()
	defer c.nodesMu.RUnlock()
	out := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.nodes[id])
	}
	return out
}

// accountOnce reports whether the caller should record client-visible
// metrics (commit/abort counters) for this transaction. Before a
// checkpoint nothing can replay and every transaction is seen once; after
// one, a restarted node re-executes logged input, and only the first
// completion counts.
func (c *Cluster) accountOnce(id tx.TxnID) bool {
	if !c.accounting.Load() {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.accounted[id]; dup {
		return false
	}
	c.accounted[id] = struct{}{}
	return true
}

// armAccounting starts recording committed transaction ids for
// accountOnce.
func (c *Cluster) armAccounting() {
	c.mu.Lock()
	if c.accounted == nil {
		c.accounted = make(map[tx.TxnID]struct{})
	}
	c.mu.Unlock()
	c.accounting.Store(true)
}

// ReliableStats exposes the reliable layer's retransmission/dedup counters
// (zero-valued when Config.Reliable is off).
func (c *Cluster) ReliableStats() network.ReliableStats {
	if c.rel == nil {
		return network.ReliableStats{}
	}
	return c.rel.Stats()
}

// Collector exposes the cluster's metrics.
func (c *Cluster) Collector() *metrics.Collector { return c.collector }

// SeqEpoch returns the current sequencer leadership epoch (0 until the
// first failover).
func (c *Cluster) SeqEpoch() uint64 {
	if c.seq == nil {
		return 0
	}
	return c.seq.Epoch()
}

// SeqLeader returns the transport node id of the current sequencer
// leader replica (LeaderNode until the first failover).
func (c *Cluster) SeqLeader() tx.NodeID {
	if c.seq == nil {
		return LeaderNode
	}
	return c.seq.LeaderID()
}

// SeqFailovers returns how many sequencer leader promotions completed.
func (c *Cluster) SeqFailovers() int64 {
	if c.seq == nil {
		return 0
	}
	return c.seq.Failovers()
}

// SeqHeartbeatMisses returns how many leader heartbeat misses the standby
// sequencers have observed.
func (c *Cluster) SeqHeartbeatMisses() int64 {
	if c.seq == nil {
		return 0
	}
	return c.seq.HeartbeatMisses()
}

// Telemetry exposes the telemetry handle the cluster was built with (nil
// when telemetry is off).
func (c *Cluster) Telemetry() *telemetry.Telemetry { return c.cfg.Telemetry }

// NetStats exposes transport byte/message accounting.
func (c *Cluster) NetStats() *network.Stats { return c.netStats }

// Node returns the node with the given id (nil if unknown); used by tests
// and recovery drills. After a RestartNode the returned instance is the
// replacement, not the killed one.
func (c *Cluster) Node(id tx.NodeID) *Node { return c.node(id) }

// Active returns the currently active node set as last set by
// provisioning calls on this handle.
func (c *Cluster) Active() []tx.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]tx.NodeID(nil), c.active...)
}

// Submit enqueues a transaction request via the front-end of node via (a
// node this process hosts), returning a channel closed when the
// transaction commits (or aborts — the client gets an answer either way).
// The waiter is registered under the front-end's (Client, ClientSeq) stamp
// before the request is transmitted, so no answer can outrun it.
func (c *Cluster) Submit(via tx.NodeID, proc tx.Procedure) (<-chan struct{}, error) {
	fe := c.fes[via]
	if fe == nil {
		return nil, fmt.Errorf("engine: submit via unknown node %d", via)
	}
	if c.seq == nil {
		// The leader is another process: a procedure the codec has no tag
		// for would fail to encode on every hop, so it is turned away here.
		if _, err := tx.WireTag(proc); err != nil {
			return nil, fmt.Errorf("engine: refusing submission: %w", err)
		}
	}
	req := tx.NewRequest(0, proc)
	req.SubmitTime = time.Now()
	done := make(chan struct{})
	var key clientKey
	err := fe.SubmitTracked(req, func(seq uint64) {
		c.mu.Lock()
		if !c.stopped {
			key = clientKey{via, seq}
			c.waiters[key] = done
		}
		c.mu.Unlock()
	})
	if key.seq == 0 { // stamps start at 1: the hook registered nothing
		return nil, fmt.Errorf("engine: cluster stopped")
	}
	if err != nil {
		c.mu.Lock()
		delete(c.waiters, key)
		c.mu.Unlock()
		return nil, err
	}
	return done, nil
}

// SubmitAndWait submits and blocks until completion.
func (c *Cluster) SubmitAndWait(via tx.NodeID, proc tx.Procedure) error {
	done, err := c.Submit(via, proc)
	if err != nil {
		return err
	}
	<-done
	return nil
}

// Provision submits a totally ordered membership change (§3.3) and
// returns its completion channel.
func (c *Cluster) Provision(add, remove []tx.NodeID) (<-chan struct{}, error) {
	c.mu.Lock()
	for _, n := range add {
		found := false
		for _, a := range c.active {
			if a == n {
				found = true
			}
		}
		if !found {
			c.active = append(c.active, n)
		}
	}
	for _, n := range remove {
		for i, a := range c.active {
			if a == n {
				c.active = append(c.active[:i], c.active[i+1:]...)
				break
			}
		}
	}
	c.mu.Unlock()
	return c.Submit(c.order[0], &tx.ProvisionProc{Add: add, Remove: remove})
}

// release answers the client waiting under key, if one still is. It runs
// once per transaction at the committing node (or on MsgTxnDone's arrival);
// replays and re-sent notices find nothing and change nothing.
func (c *Cluster) release(key clientKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.waiters[key]; ok {
		delete(c.waiters, key)
		// Closed under mu: whoever reads Pending() == 0 (Drain) may rely on
		// every client having been released.
		close(ch)
	}
}

// Pending reports the number of in-flight transactions.
func (c *Cluster) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// Drain flushes the sequencer and waits (up to timeout) until all
// in-flight transactions have completed *everywhere* — not just at their
// committing node: every node's key queues must be empty, so all remote
// writers, write-backs, and migrations have been applied. It reports
// whether the cluster drained; DrainDetail explains a failure.
func (c *Cluster) Drain(timeout time.Duration) bool {
	return c.DrainDetail(timeout) == nil
}

// DrainDetail is Drain with a diagnosis: on timeout the error names what
// the quiesce is stuck behind — the node and the batch sequence its
// scheduler has not consumed, a non-empty key queue, in-flight
// transactions, or a front-end still holding unacknowledged submissions.
func (c *Cluster) DrainDetail(timeout time.Duration) error {
	if c.seq == nil {
		return fmt.Errorf("engine: drain needs the in-process sequencer; a worker process quiesces via WorkerQuiesce")
	}
	deadline := time.Now().Add(timeout)
	var stuck error
	for {
		c.seq.Flush()
		if stuck = c.quiesceCheck(); stuck == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: drain timed out after %v: %w", timeout, stuck)
		}
		time.Sleep(time.Millisecond)
	}
}

// quiesceCheck reports why the cluster is not quiescent (nil when it is).
// Quiescence needs more than "no client is waiting": every replica's
// scheduler must also have consumed the full sealed batch stream. A
// transaction completes when its committer finishes, so a node that merely
// observes a batch can still be routing it — and its policy replica
// (fusion table, placement) would be a batch behind anything that
// fingerprints it now. That diagnosis comes first because it is the most
// actionable: a scheduler that stopped consuming the sealed stream
// explains whatever is still in flight behind it.
func (c *Cluster) quiesceCheck() error {
	nextSeq, _ := c.seq.Next()
	c.mu.Lock()
	down := make(map[tx.NodeID]bool, len(c.crashed))
	for id := range c.crashed {
		down[id] = true
	}
	c.mu.Unlock()
	nodes := c.nodeList()
	for _, n := range nodes {
		if down[n.id] {
			continue // frozen until RestartNode catches it up
		}
		// A refused batch means the total order skipped one at this node,
		// even when the stream has not yet moved past the cursor.
		if r := n.refusal(); r != "" {
			return fmt.Errorf("%s (sealed stream at %d)", r, nextSeq)
		}
		if got := n.Scheduled(); got != nextSeq {
			return fmt.Errorf("node %d stuck at batch %d (sealed stream at %d)", n.id, got, nextSeq)
		}
	}
	for _, n := range nodes {
		if down[n.id] {
			continue
		}
		q := c.quiesceInfo(n)
		if q.Settled() {
			continue
		}
		// A crashed straggler is exempt from the scheduler check above (it
		// is frozen by design), but when it is what the in-flight work
		// waits on, the diagnosis should say so.
		if q.Pending != 0 {
			for _, d := range nodes {
				if down[d.id] && d.Scheduled() != nextSeq {
					return fmt.Errorf("%d transactions still in flight; node %d is crashed and stuck at batch %d (sealed stream at %d)",
						q.Pending, d.id, d.Scheduled(), nextSeq)
				}
			}
		}
		return fmt.Errorf("node %d not settled at batch %d: %+v", n.id, nextSeq, q)
	}
	return nil
}

// Stop shuts the cluster down. In-flight transactions are abandoned;
// call Drain first for a clean quiesce.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	for _, fe := range c.fes {
		fe.Stop()
	}
	if c.seq != nil {
		c.seq.Stop()
	}
	nodes := c.nodeList()
	for _, n := range nodes {
		n.stop()
	}
	c.tr.Close()
	for _, n := range nodes {
		n.wait()
	}
}

// Fingerprint folds NodeDigests into one hash of the entire cluster
// state: every node's storage plus every replica's fusion table. Two runs
// on the same input must produce equal fingerprints — the determinism
// guarantee of the whole stack.
func (c *Cluster) Fingerprint() uint64 {
	acc := uint64(14695981039346656037) // FNV-1a over the digests, in node order
	for _, d := range c.NodeDigests() {
		for _, v := range [...]uint64{uint64(d.Node), d.Store, d.Fusion} {
			acc = (acc ^ v) * 1099511628211
		}
	}
	return acc
}

// NodeDigest captures one node's externally comparable state at
// quiescence: where every record lives and what the routing replica
// believes. Two runs of the same input must agree on every field for
// every node; Fingerprint folds them into one number, and comparing them
// one by one also names the node that diverged.
type NodeDigest struct {
	Node tx.NodeID
	// Store is the stable digest over the node's record contents.
	Store uint64
	// Fusion is the routing replica's fusion-table fingerprint (0 when
	// the policy has no fusion table).
	Fusion uint64
	// Records and Bytes are the node's record count and value volume.
	Records int
	Bytes   int64
}

// NodeDigests returns every node's state digest in node order.
func (c *Cluster) NodeDigests() []NodeDigest {
	out := make([]NodeDigest, 0, len(c.order))
	for _, n := range c.nodeList() {
		d := NodeDigest{Node: n.id, Store: n.store.Digest()}
		d.Records, d.Bytes = n.store.Usage()
		if f := n.policy.Placement().Fusion; f != nil {
			d.Fusion = f.Fingerprint()
		}
		out = append(out, d)
	}
	return out
}

// SeqStats snapshots the in-process total-order leader's counters (zero
// value when the cluster runs without its own sequencer, i.e. distributed
// worker mode).
func (c *Cluster) SeqStats() sequencer.LeaderStats {
	if c.seq == nil {
		return sequencer.LeaderStats{}
	}
	return c.seq.Stats()
}

// SeqFlush seals the in-process leader's pending requests into one batch
// (no-op without a sequencer).
func (c *Cluster) SeqFlush() {
	if c.seq != nil {
		c.seq.Flush()
	}
}

// TotalRecords sums the record counts across all nodes; migration must
// conserve it.
func (c *Cluster) TotalRecords() int {
	total := 0
	for _, n := range c.nodeList() {
		total += n.store.Len()
	}
	return total
}

// TotalBytes sums the record value volume across all nodes; migration
// must conserve it alongside the record count.
func (c *Cluster) TotalBytes() int64 {
	var total int64
	for _, n := range c.nodeList() {
		_, b := n.store.Usage()
		total += b
	}
	return total
}

// LoadRecord seeds a record at its home partition as computed by node 0's
// placement (all replicas agree). Call before submitting transactions.
func (c *Cluster) LoadRecord(k tx.Key, v []byte) {
	home := c.node(c.order[0]).policy.Placement().Home(k)
	c.node(home).store.Write(k, v)
}

// SeedRows loads the static initial layout in bulk: it writes table-0
// rows [0, rows) as zeroed values of size bytes, each at its home as node
// 0's placement computes it (all replicas agree), and returns how many it
// wrote. Only rows homed on a node this Cluster hosts are written — all of
// them in the emulation, one node's share in a worker — so every process
// of a cluster can run the same call over the same rows. Each row ends up
// exactly as LoadRecord would leave it. Placement is resolved once, and
// each hosted store takes its share in one Store.LoadZeroed. Call before
// the node starts.
func (c *Cluster) SeedRows(rows uint64, size int) int {
	nodes := c.nodeList()
	pl := nodes[0].policy.Placement()
	homed := make([][]tx.Key, len(nodes))
	for r := uint64(0); r < rows; r++ {
		k := tx.MakeKey(0, r)
		home := pl.Home(k)
		for i, n := range nodes {
			if n.id == home {
				homed[i] = append(homed[i], k)
				break
			}
		}
	}
	seeded := 0
	for i, n := range nodes {
		n.store.LoadZeroed(homed[i], size)
		seeded += len(homed[i])
	}
	return seeded
}

// ReadRecord locates and reads a record via current placement; returns
// nil,false if absent everywhere. Intended for tests and examples, not
// the transaction path.
func (c *Cluster) ReadRecord(k tx.Key) ([]byte, bool) {
	owner := c.node(c.order[0]).policy.Placement().Owner(k)
	if v, ok := c.node(owner).store.Read(k); ok {
		return v, true
	}
	for _, n := range c.nodeList() {
		if v, ok := n.store.Read(k); ok {
			return v, true
		}
	}
	return nil, false
}
