// Package hermes is a from-scratch Go reproduction of "Don't Look Back,
// Look into the Future: Prescient Data Partitioning and Migration for
// Deterministic Database Systems" (Lin et al., SIGMOD 2021): a
// Calvin-style deterministic distributed database whose transaction
// router jointly performs load balancing, dynamic data (re-)partitioning,
// and live data migration by analyzing whole batches of queued future
// transactions.
//
// The package exposes the emulated cluster — every node runs its own
// storage shard, deterministic lock manager, and routing-policy replica
// inside one process, connected by a latency-modelled transport — plus
// every routing policy the paper evaluates (Hermes's prescient routing
// and the Calvin, G-Store+, LEAP, and T-Part baselines, with Clay/Schism/
// Squall in the experiment harness).
//
// Quick start:
//
//	db, err := hermes.Open(hermes.Options{Nodes: 4, Rows: 100_000})
//	if err != nil { ... }
//	defer db.Close()
//	db.LoadUniform(64)
//	// Read two rows, bump row 1's little-endian counter in a 64-byte value.
//	err = db.ExecWait(0, &hermes.CounterProc{
//	    Reads:   []hermes.Key{hermes.MakeKey(0, 1), hermes.MakeKey(0, 99_000)},
//	    Writes:  []hermes.Key{hermes.MakeKey(0, 1)},
//	    Payload: 64,
//	})
package hermes

import (
	"fmt"
	"time"

	"hermes/internal/chaos"
	"hermes/internal/core"
	"hermes/internal/engine"
	"hermes/internal/fusion"
	"hermes/internal/metrics"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/sequencer"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// Re-exported core types so applications only import this package.
type (
	// Key identifies a record (table-tagged row id).
	Key = tx.Key
	// NodeID identifies a machine node / partition.
	NodeID = tx.NodeID
	// Procedure is a deterministic stored procedure with declared
	// read/write-sets.
	Procedure = tx.Procedure
	// ExecCtx is the procedure's database access interface.
	ExecCtx = tx.ExecCtx
	// CounterProc is the ready-made read/modify/write procedure: it bumps
	// the little-endian counter leading each written value. It is plain
	// data, so it also runs on a multi-process cluster.
	CounterProc = tx.CounterProc
	// FuncProc adapts a function to the Procedure interface (in-process
	// only: a function has no wire form).
	FuncProc = tx.FuncProc
	// Partitioner maps keys to home partitions.
	Partitioner = partition.Partitioner
	// Breakdown is the per-transaction latency decomposition.
	Breakdown = metrics.Breakdown
	// Batch is one totally ordered request batch (checkpoint tails).
	Batch = tx.Batch
)

// MakeKey builds a key for a row in a table.
func MakeKey(table uint8, row uint64) Key { return tx.MakeKey(table, row) }

// Policy selects the transaction routing algorithm — the only difference
// between the systems the paper compares.
type Policy string

// Available routing policies.
const (
	// PolicyHermes is the paper's prescient transaction routing with
	// data fusion and a bounded fusion table (§3).
	PolicyHermes Policy = "hermes"
	// PolicyCalvin is vanilla Calvin: multi-master execution over static
	// partitions.
	PolicyCalvin Policy = "calvin"
	// PolicyGStore is the G-Store+ look-present baseline: pull to a
	// majority master, write back after commit.
	PolicyGStore Policy = "g-store"
	// PolicyLEAP is the LEAP look-present baseline: migrate records to
	// the majority master.
	PolicyLEAP Policy = "leap"
	// PolicyTPart is the T-Part routing baseline: balanced single-master
	// routing with forward pushing, no persistent migration.
	PolicyTPart Policy = "t-part"
)

// Options configures Open. Zero values get sensible defaults.
type Options struct {
	// Nodes is the number of (initially active) server nodes.
	Nodes int
	// StandbyNodes are additional nodes created inactive for later
	// scale-out via Provision.
	StandbyNodes int
	// Rows sizes the default single-table database for LoadUniform and
	// the default range partitioner.
	Rows uint64
	// Policy picks the routing algorithm (default PolicyHermes).
	Policy Policy
	// Base overrides the static home partitioning (default: uniform
	// range over Rows and Nodes; required if Rows is 0).
	Base Partitioner
	// FusionCapacity bounds Hermes's fusion table in entries (default
	// 2.5% of Rows, the paper's working bound from §4.1).
	FusionCapacity int
	// Alpha is the load-imbalance tolerance θ = ⌈b/n·(1+α)⌉.
	Alpha float64
	// BatchSize and BatchInterval configure the sequencer.
	BatchSize     int
	BatchInterval time.Duration
	// SeqStandbys adds standby sequencer replicas that mirror the sealed
	// batch stream before it is delivered, making the total-order service
	// itself fault tolerant: CrashLeader kills the current leader and the
	// lowest-rank live standby deterministically promotes itself after
	// 150 ms of leader silence (see docs/RECOVERY.md). 0 (the default)
	// keeps the single-leader configuration with zero replication
	// overhead.
	SeqStandbys int
	// NetLatency is the one-way network latency between nodes (0 = off):
	// every link runs the fault-free chaos.Shape{Latency: NetLatency}.
	NetLatency time.Duration
	// StorageDelay is a per-record storage access cost (0 = off).
	StorageDelay time.Duration
	// Executors sizes each node's executor pool and bounds concurrent
	// transaction execution per node (default 4; Open refuses a negative
	// count).
	// ExecCost is the simulated CPU time per executed transaction (0 =
	// off). Together they set a node's saturation throughput.
	Executors int
	ExecCost  time.Duration
	// StatsWindow is the throughput window (default 1s).
	StatsWindow time.Duration
	// Reliable interposes the reliable-delivery layer (sequencing, acks,
	// retransmission, dedup, delivery logs) under every node. Required for
	// CrashNode/RestartNode and for surviving lossy transports. It is
	// opt-in because it is not cheap. Two pairs of the benchmark's
	// inproc-ycsb workload, without and with the layer forced on (seeds
	// 1-2, 2 vCPUs), read 52.7 -> 66.2 and 56.3 -> 67.6 µs of CPU per
	// transaction, and 36.9k -> 29.3k and 34.5k -> 28.8k txn/s. Two pairs
	// are an indication, not a claim.
	Reliable bool
	// Telemetry attaches the observability layer: a per-transaction
	// lifecycle tracer and a gauge/counter registry, servable over HTTP
	// via DB.Telemetry().Handler() (see docs/OBSERVABILITY.md). It is
	// strictly observation-only — enabling it cannot change any
	// deterministic outcome — and costs a few percent of throughput.
	Telemetry bool
}

// DB is an open emulated cluster.
type DB struct {
	cluster *engine.Cluster
	opts    Options
}

// Open builds and starts a cluster.
func Open(opts Options) (*DB, error) {
	opts, cfg, err := engineConfig(opts)
	if err != nil {
		return nil, err
	}
	cl, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{cluster: cl, opts: opts}, nil
}

// engineConfig validates opts, fills in its defaults (returned, with Base
// always set) and derives the engine configuration from them. Open starts a
// cluster from the result; recovery restores one.
func engineConfig(opts Options) (Options, engine.Config, error) {
	if opts.Nodes <= 0 {
		return opts, engine.Config{}, fmt.Errorf("hermes: Nodes must be positive")
	}
	if opts.Policy == "" {
		opts.Policy = PolicyHermes
	}
	if opts.Base == nil {
		if opts.Rows == 0 {
			return opts, engine.Config{}, fmt.Errorf("hermes: need Rows or an explicit Base partitioner")
		}
		opts.Base = partition.NewUniformRange(0, opts.Rows, opts.Nodes)
	}
	if opts.FusionCapacity == 0 && opts.Rows > 0 {
		opts.FusionCapacity = int(opts.Rows / 40) // 2.5% of the database
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = 100
	}
	if opts.BatchInterval == 0 {
		opts.BatchInterval = 5 * time.Millisecond
	}
	pf, err := policyFactory(opts.Policy, opts.Base, opts)
	if err != nil {
		return opts, engine.Config{}, err
	}
	// A fault-free schedule passes every check, and a zero Shape
	// conditions no link.
	links, _ := chaos.NewModel(chaos.Schedule{Shape: chaos.Shape{Latency: opts.NetLatency}})
	ids := make([]tx.NodeID, opts.Nodes+opts.StandbyNodes)
	for i := range ids {
		ids[i] = tx.NodeID(i)
	}
	var tel *telemetry.Telemetry
	if opts.Telemetry {
		tel = telemetry.New(ids, 0)
	}
	return opts, engine.Config{
		Nodes:  ids,
		Active: ids[:opts.Nodes],
		Policy: pf,
		Seq: sequencer.Config{
			BatchSize: opts.BatchSize, Interval: opts.BatchInterval,
			Standbys: opts.SeqStandbys,
		},
		Links:        links.Link,
		StorageDelay: opts.StorageDelay,
		Executors:    opts.Executors,
		ExecCost:     opts.ExecCost,
		Window:       opts.StatsWindow,
		Reliable:     opts.Reliable,
		Telemetry:    tel,
	}, nil
}

// PolicyFactoryFor builds the engine policy factory for a routing policy
// over an explicit base partitioning — the identical construction Open
// uses. Multi-process cluster workers call it so every process (and the
// in-process emulation their digests are compared against) builds the same
// replica: alpha is the imbalance tolerance, fusionCapacity bounds
// Hermes's fusion table (Open defaults it to Rows/40).
func PolicyFactoryFor(p Policy, base Partitioner, alpha float64, fusionCapacity int) (engine.PolicyFactory, error) {
	return policyFactory(p, base, Options{Alpha: alpha, FusionCapacity: fusionCapacity})
}

func policyFactory(p Policy, base Partitioner, opts Options) (engine.PolicyFactory, error) {
	switch p {
	case PolicyHermes:
		cfg := core.Config{
			Alpha:          opts.Alpha,
			FusionCapacity: opts.FusionCapacity,
			FusionPolicy:   fusion.LRU,
		}
		return func(a []tx.NodeID) router.Policy { return core.New(base, a, cfg) }, nil
	case PolicyCalvin:
		return func(a []tx.NodeID) router.Policy { return router.NewCalvin(base, a) }, nil
	case PolicyGStore:
		return func(a []tx.NodeID) router.Policy { return router.NewGStore(base, a) }, nil
	case PolicyLEAP:
		return func(a []tx.NodeID) router.Policy { return router.NewLEAP(base, a) }, nil
	case PolicyTPart:
		return func(a []tx.NodeID) router.Policy { return router.NewTPart(base, a, opts.Alpha) }, nil
	default:
		return nil, fmt.Errorf("hermes: unknown policy %q", p)
	}
}

// Exec submits a transaction through node via's front-end and returns a
// channel closed on completion.
func (db *DB) Exec(via NodeID, proc Procedure) (<-chan struct{}, error) {
	return db.cluster.Submit(via, proc)
}

// ExecWait submits and blocks until the transaction completes.
func (db *DB) ExecWait(via NodeID, proc Procedure) error {
	return db.cluster.SubmitAndWait(via, proc)
}

// Load seeds one record at its home partition. Use before running
// transactions.
func (db *DB) Load(k Key, v []byte) { db.cluster.LoadRecord(k, v) }

// LoadUniform seeds Rows records of the given payload size, counters
// zeroed.
func (db *DB) LoadUniform(payload int) {
	db.cluster.SeedRows(db.opts.Rows, payload)
}

// Read fetches a record through current placement (diagnostics; not the
// transactional path).
func (db *DB) Read(k Key) ([]byte, bool) { return db.cluster.ReadRecord(k) }

// Provision activates and/or deactivates nodes through a totally ordered
// control transaction (§3.3).
func (db *DB) Provision(add, remove []NodeID) error {
	done, err := db.cluster.Provision(add, remove)
	if err != nil {
		return err
	}
	<-done
	return nil
}

// Migrate moves the given keys to node to using chunked cold-migration
// transactions (Squall-style). Hot keys tracked by the fusion table are
// skipped automatically (§3.3). It blocks until all chunks commit.
func (db *DB) Migrate(keys []Key, to NodeID, chunkSize int) error {
	if chunkSize <= 0 {
		chunkSize = 1000
	}
	for start := 0; start < len(keys); start += chunkSize {
		end := start + chunkSize
		if end > len(keys) {
			end = len(keys)
		}
		if err := db.ExecWait(to, &tx.MigrationProc{Keys: keys[start:end], To: to}); err != nil {
			return err
		}
	}
	return nil
}

// Drain waits for all in-flight transactions to finish everywhere.
func (db *DB) Drain(timeout time.Duration) bool { return db.cluster.Drain(timeout) }

// CrashNode kills a node: all of its volatile state is lost and
// transactions that need it stall deterministically until RestartNode.
// Requires Options.Reliable and a prior successful Checkpoint.
func (db *DB) CrashNode(id NodeID) error { return db.cluster.CrashNode(id) }

// RestartNode recovers a crashed node by replaying its logged input from
// the last checkpoint, then rejoins it to live traffic.
func (db *DB) RestartNode(id NodeID) error { return db.cluster.RestartNode(id) }

// CrashLeader kills the current sequencer leader. The lowest-rank live
// standby detects the silence, promotes itself into a new epoch, and
// resumes sealing from its replicated high-water mark; in-flight
// submissions are redirected and deduplicated so every transaction is
// sequenced exactly once. Requires Options.Reliable, Options.SeqStandbys
// ≥ 1, and a prior successful Checkpoint.
func (db *DB) CrashLeader() error { return db.cluster.CrashLeader() }

// RestartLeader restarts the replica killed by CrashLeader as a standby
// of the new epoch, once a promotion has happened: it restores the
// sequencing state from the last checkpoint, replays its logged delivery
// stream, and rejoins the heartbeat/promotion order.
func (db *DB) RestartLeader() error { return db.cluster.RestartLeader() }

// Tail returns the sealed batches with sequence ≥ seq — the input after
// a checkpoint, to hand to RecoverWithTail. The sequencer's sealed log is
// the command log, and it starts at the newest checkpoint: before the
// first one a database without sequencer standbys keeps none, so Tail
// returns nothing.
func (db *DB) Tail(seq uint64) []*Batch { return db.cluster.TailSince(seq) }

// Close shuts the cluster down.
func (db *DB) Close() { db.cluster.Stop() }

// Stats is a snapshot of run-wide measurements.
type Stats struct {
	Committed    int64
	Aborted      int64
	Migrations   int64
	RemoteReads  int64
	NetworkMsgs  int64
	NetworkBytes int64
	// MigrationBytes counts migrated payload bytes landed at their
	// destinations; MigrationsInFlight is the instantaneous gauge of
	// transactions currently executing with attached migrations.
	MigrationBytes     int64
	MigrationsInFlight int64
	// Throughput is committed transactions per StatsWindow, oldest first.
	Throughput []int64
	// AvgBreakdown is the mean per-transaction latency decomposition.
	AvgBreakdown Breakdown
	// P50 and P99 are approximate total-latency quantiles.
	P50, P99 time.Duration
	// Retransmits and DupsDropped count the reliable layer's recovery
	// actions (zero without Options.Reliable).
	Retransmits int64
	DupsDropped int64
	// Crashes / Recoveries / Downtime summarize node kills and restarts.
	Crashes    int64
	Recoveries int64
	Downtime   time.Duration
	// SeqEpoch is the sequencer leadership epoch (0 until a failover);
	// SeqLeader the replica currently sealing batches. SeqFailovers counts
	// standby promotions and SeqHeartbeatMisses the heartbeat deadlines
	// standbys saw pass in silence.
	SeqEpoch           uint64
	SeqLeader          NodeID
	SeqFailovers       int64
	SeqHeartbeatMisses int64
	// RoutingBatches counts batch-routing invocations across all
	// replicas; RoutingPerBatch / RoutingPerTxn are the mean prescient
	// analysis cost (§3.2.4).
	RoutingBatches  int64
	RoutingPerBatch time.Duration
	RoutingPerTxn   time.Duration
}

// Stats snapshots the cluster's metrics.
func (db *DB) Stats() Stats {
	col := db.cluster.Collector()
	msgs, bytes := db.cluster.NetStats().Totals()
	rel := db.cluster.ReliableStats()
	routing := col.Routing()
	return Stats{
		Committed:          col.Committed(),
		Aborted:            col.Aborted(),
		Migrations:         col.Migrations(),
		RemoteReads:        col.RemoteReads(),
		NetworkMsgs:        msgs,
		NetworkBytes:       bytes,
		MigrationBytes:     col.MigrationBytes(),
		MigrationsInFlight: col.MigrationsInFlight(),
		Throughput:         col.Throughput(),
		AvgBreakdown:       col.AvgBreakdown(),
		P50:                col.LatencyQuantile(0.5),
		P99:                col.LatencyQuantile(0.99),
		Retransmits:        rel.Retransmits,
		DupsDropped:        rel.DupsDropped,
		Crashes:            col.Crashes(),
		Recoveries:         col.Recoveries(),
		Downtime:           col.Downtime(),
		SeqEpoch:           db.cluster.SeqEpoch(),
		SeqLeader:          db.cluster.SeqLeader(),
		SeqFailovers:       db.cluster.SeqFailovers(),
		SeqHeartbeatMisses: db.cluster.SeqHeartbeatMisses(),
		RoutingBatches:     routing.Batches,
		RoutingPerBatch:    routing.PerBatch,
		RoutingPerTxn:      routing.PerTxn,
	}
}

// Telemetry returns the observability handle (nil unless
// Options.Telemetry): the lifecycle tracer, the metric registry, and the
// HTTP surface via Telemetry().Handler().
func (db *DB) Telemetry() *telemetry.Telemetry { return db.cluster.Telemetry() }

// Fingerprint hashes the full cluster state (storage + fusion tables);
// identical inputs always produce identical fingerprints.
func (db *DB) Fingerprint() uint64 { return db.cluster.Fingerprint() }

// NodeFingerprints returns a per-node state digest (storage contents
// combined with the node's fusion-table fingerprint). Determinism
// tooling compares these across runs: unlike the cluster-wide
// Fingerprint, they pin down *which* node diverged, and they catch
// compensating per-node differences the aggregate could mask.
func (db *DB) NodeFingerprints() map[NodeID]uint64 {
	out := make(map[NodeID]uint64)
	for _, d := range db.cluster.NodeDigests() {
		out[d.Node] = d.Store ^ d.Fusion*0x9E3779B97F4A7C15
	}
	return out
}

// Cluster exposes the underlying engine cluster for advanced integration
// (experiment harnesses, workload drivers).
func (db *DB) Cluster() *engine.Cluster { return db.cluster }
