// Package metrics collects the measurements the paper's evaluation
// reports: committed-transaction throughput over time windows (Figs. 2, 6,
// 12, 14), per-transaction latency broken down by phase (Fig. 7), CPU busy
// time per node and network bytes per transaction (Fig. 8), and latency
// percentiles via a log-bucketed histogram.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/telemetry"
)

// Breakdown is the per-transaction latency decomposition of Fig. 7. The
// two queue components exist so the queue execution mode stays honest:
// LockWait is strictly time blocked in the conservative lock manager (zero
// by construction in queue mode), while queue-planning cost and queue
// residence are attributed to QueuePlan and QueueWait instead of vanishing
// into Scheduling.
type Breakdown struct {
	Scheduling time.Duration // batch analysis + routing + dispatch
	LockWait   time.Duration // conservative-ordered-lock queueing
	QueuePlan  time.Duration // per-txn share of queue-mode batch planning
	QueueWait  time.Duration // queue-mode admission -> rendezvous residence
	Storage    time.Duration // local record reads/writes
	RemoteWait time.Duration // blocking on records from other nodes
	Other      time.Duration // everything else (queuing, commit, client)
}

// Total returns the sum of all components.
func (b Breakdown) Total() time.Duration {
	return b.Scheduling + b.LockWait + b.QueuePlan + b.QueueWait +
		b.Storage + b.RemoteWait + b.Other
}

// Add returns the component-wise sum of b and o.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Scheduling: b.Scheduling + o.Scheduling,
		LockWait:   b.LockWait + o.LockWait,
		QueuePlan:  b.QueuePlan + o.QueuePlan,
		QueueWait:  b.QueueWait + o.QueueWait,
		Storage:    b.Storage + o.Storage,
		RemoteWait: b.RemoteWait + o.RemoteWait,
		Other:      b.Other + o.Other,
	}
}

// Scale returns b with every component divided by n (n ≤ 0 returns b).
func (b Breakdown) Scale(n int64) Breakdown {
	if n <= 0 {
		return b
	}
	return Breakdown{
		Scheduling: b.Scheduling / time.Duration(n),
		LockWait:   b.LockWait / time.Duration(n),
		QueuePlan:  b.QueuePlan / time.Duration(n),
		QueueWait:  b.QueueWait / time.Duration(n),
		Storage:    b.Storage / time.Duration(n),
		RemoteWait: b.RemoteWait / time.Duration(n),
		Other:      b.Other / time.Duration(n),
	}
}

// Collector aggregates run-wide statistics. All methods are safe for
// concurrent use.
type Collector struct {
	start  time.Time
	window time.Duration

	committed atomic.Int64
	aborted   atomic.Int64
	// hist holds total commit latency; quantiles are power-of-two bucket
	// upper bounds, exact to one doubling.
	hist telemetry.LatencyHist

	mu        sync.Mutex
	perWindow []int64
	sum       Breakdown

	// busy holds per-node busy-nanos counters indexed by node ID (dense
	// small ints). The slice is immutable once published: growing copies
	// the counter pointers into a larger slice under mu and swaps the
	// pointer, so the hot path (AddBusy/BusyTotal) is a single atomic
	// load + bounds check with no lock.
	busy    atomic.Pointer[[]*atomic.Int64]
	busyNeg sync.Map // nodeID < 0 fallback (never hit by the engine)

	migrations         atomic.Int64
	migrationBytes     atomic.Int64
	migrationsInFlight atomic.Int64
	remoteReads        atomic.Int64

	routingBatches atomic.Int64
	routingTxns    atomic.Int64
	routingNanos   atomic.Int64

	queuePlanBatches atomic.Int64
	queuePlanTxns    atomic.Int64
	queuePlanNanos   atomic.Int64

	crashes       atomic.Int64
	recoveries    atomic.Int64
	downtimeNanos atomic.Int64
}

// RoutingStats is the routing-cost summary of §3.2.4: how much scheduler
// time the prescient analysis itself consumes, reported per batch and per
// transaction so it can be compared against end-to-end latency (the paper
// measures ~4% of transaction latency at b=1000, n=20).
type RoutingStats struct {
	Batches  int64
	Txns     int64
	Total    time.Duration
	PerBatch time.Duration // mean routing time per batch
	PerTxn   time.Duration // mean routing time per transaction
}

// NewCollector returns a collector with throughput windows of the given
// duration, starting at start.
func NewCollector(start time.Time, window time.Duration) *Collector {
	c := &Collector{
		start:  start,
		window: window,
	}
	// Pre-size well past any realistic node count so the grow path never
	// runs during a measured workload.
	s := newBusySlice(64)
	c.busy.Store(&s)
	return c
}

func newBusySlice(n int) []*atomic.Int64 {
	s := make([]*atomic.Int64, n)
	for i := range s {
		s[i] = &atomic.Int64{}
	}
	return s
}

// busyCounter returns the busy-nanos counter for a node, lock-free for
// in-range dense IDs.
func (c *Collector) busyCounter(nodeID int) *atomic.Int64 {
	if nodeID < 0 {
		v, _ := c.busyNeg.LoadOrStore(nodeID, &atomic.Int64{})
		return v.(*atomic.Int64)
	}
	if s := *c.busy.Load(); nodeID < len(s) {
		return s[nodeID]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := *c.busy.Load()
	if nodeID < len(s) {
		return s[nodeID]
	}
	n := len(s) * 2
	for n <= nodeID {
		n *= 2
	}
	grown := newBusySlice(n)
	copy(grown, s)
	c.busy.Store(&grown)
	return grown[nodeID]
}

// RecordCommit records a committed transaction finishing at now with the
// given latency breakdown.
func (c *Collector) RecordCommit(now time.Time, b Breakdown) {
	c.committed.Add(1)
	idx := 0
	if c.window > 0 {
		idx = int(now.Sub(c.start) / c.window)
		if idx < 0 {
			idx = 0
		}
	}
	c.mu.Lock()
	for len(c.perWindow) <= idx {
		c.perWindow = append(c.perWindow, 0)
	}
	c.perWindow[idx]++
	c.sum = c.sum.Add(b)
	c.mu.Unlock()
	c.hist.Observe(int64(b.Total()))
}

// RecordAbort records a logic abort (the transaction still consumed
// resources but does not count toward throughput).
func (c *Collector) RecordAbort() { c.aborted.Add(1) }

// RecordMigration counts records migrated between nodes (fusion moves,
// write-backs, and cold chunks all count).
func (c *Collector) RecordMigration(records int) { c.migrations.Add(int64(records)) }

// RecordMigrationBytes counts payload bytes landed by migrations.
func (c *Collector) RecordMigrationBytes(n int) { c.migrationBytes.Add(int64(n)) }

// AddMigrationsInFlight adjusts the gauge of transactions currently
// carrying migrations (+1 when such a transaction starts executing, -1
// when it finishes).
func (c *Collector) AddMigrationsInFlight(delta int64) { c.migrationsInFlight.Add(delta) }

// MigrationsInFlight returns the current in-flight migration gauge.
func (c *Collector) MigrationsInFlight() int64 { return c.migrationsInFlight.Load() }

// MigrationBytes returns the cumulative migrated payload bytes.
func (c *Collector) MigrationBytes() int64 { return c.migrationBytes.Load() }

// RecordRemoteReads counts records read across the network.
func (c *Collector) RecordRemoteReads(n int) { c.remoteReads.Add(int64(n)) }

// RecordRouting records one batch-routing invocation: txns transactions
// planned in d of scheduler time. Every node's scheduler routes every
// batch (deterministic replication), so callers record once per node per
// batch; the averages still report the per-batch cost correctly.
func (c *Collector) RecordRouting(txns int, d time.Duration) {
	c.routingBatches.Add(1)
	c.routingTxns.Add(int64(txns))
	c.routingNanos.Add(int64(d))
}

// Routing returns the cumulative routing-cost summary.
func (c *Collector) Routing() RoutingStats {
	s := RoutingStats{
		Batches: c.routingBatches.Load(),
		Txns:    c.routingTxns.Load(),
		Total:   time.Duration(c.routingNanos.Load()),
	}
	if s.Batches > 0 {
		s.PerBatch = s.Total / time.Duration(s.Batches)
	}
	if s.Txns > 0 {
		s.PerTxn = s.Total / time.Duration(s.Txns)
	}
	return s
}

// RecordQueuePlan records one queue-mode batch admission plan: txns roles
// partitioned into per-key queues in d of scheduler time. The shape
// mirrors RecordRouting so the two planning costs can be compared.
func (c *Collector) RecordQueuePlan(txns int, d time.Duration) {
	c.queuePlanBatches.Add(1)
	c.queuePlanTxns.Add(int64(txns))
	c.queuePlanNanos.Add(int64(d))
}

// QueuePlan returns the cumulative queue-planning cost summary.
func (c *Collector) QueuePlan() RoutingStats {
	s := RoutingStats{
		Batches: c.queuePlanBatches.Load(),
		Txns:    c.queuePlanTxns.Load(),
		Total:   time.Duration(c.queuePlanNanos.Load()),
	}
	if s.Batches > 0 {
		s.PerBatch = s.Total / time.Duration(s.Batches)
	}
	if s.Txns > 0 {
		s.PerTxn = s.Total / time.Duration(s.Txns)
	}
	return s
}

// RecordCrash counts a node kill.
func (c *Collector) RecordCrash() { c.crashes.Add(1) }

// RecordRecovery counts a node restart, accruing how long the node was
// down (kill to rejoin).
func (c *Collector) RecordRecovery(down time.Duration) {
	c.recoveries.Add(1)
	c.downtimeNanos.Add(int64(down))
}

// Crashes returns the cumulative count of node kills.
func (c *Collector) Crashes() int64 { return c.crashes.Load() }

// Recoveries returns the cumulative count of node restarts.
func (c *Collector) Recoveries() int64 { return c.recoveries.Load() }

// Downtime returns the cumulative wall time nodes spent down.
func (c *Collector) Downtime() time.Duration { return time.Duration(c.downtimeNanos.Load()) }

// AddBusy accrues execution busy-time for a node; BusyFraction divides by
// wall time to report CPU usage as in Fig. 8.
func (c *Collector) AddBusy(nodeID int, d time.Duration) {
	c.busyCounter(nodeID).Add(int64(d))
}

// BusyTotal reports the cumulative busy-time accrued by a node; samplers
// diff successive snapshots to get per-window CPU usage (Fig. 8).
func (c *Collector) BusyTotal(nodeID int) time.Duration {
	return time.Duration(c.busyCounter(nodeID).Load())
}

// BusyFraction reports node busy-time divided by elapsed wall time.
func (c *Collector) BusyFraction(nodeID int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.busyCounter(nodeID).Load()) / float64(elapsed)
}

// Committed and Aborted return cumulative counts.
func (c *Collector) Committed() int64 { return c.committed.Load() }

// Aborted returns the cumulative count of logic aborts.
func (c *Collector) Aborted() int64 { return c.aborted.Load() }

// Migrations returns the cumulative count of migrated records.
func (c *Collector) Migrations() int64 { return c.migrations.Load() }

// RemoteReads returns the cumulative count of records read remotely.
func (c *Collector) RemoteReads() int64 { return c.remoteReads.Load() }

// Throughput returns committed transactions per window, oldest first. The
// returned slice is a copy.
func (c *Collector) Throughput() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, len(c.perWindow))
	copy(out, c.perWindow)
	return out
}

// AvgBreakdown returns the mean latency breakdown over all commits.
func (c *Collector) AvgBreakdown() Breakdown {
	n := c.committed.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum.Scale(n)
}

// LatencyQuantile returns an approximate latency quantile (0 ≤ q ≤ 1).
func (c *Collector) LatencyQuantile(q float64) time.Duration {
	s := c.hist.Snapshot()
	return time.Duration(s.Quantile(q))
}
