package main

import (
	"hermes/internal/harness"
)

// workload is one set of inputs the benchmark runs. All four are closed
// loops: one ordered submitter keeps a fixed window of transactions in
// flight, and batches seal on size only, so batch composition — and with it
// every routing decision — is a function of the seed alone.
type workload struct {
	name string
	why  string

	cluster bool   // three hermesd processes over loopback TCP, else engine.Cluster in this process
	fsync   string // cluster journal policy
	nodes   int
	rows    uint64
	payload int
	batch   int
	window  int
	hotKey  bool // hot-key trace, else the YCSB stream

	// seedTPS is the seed code's throughput on the 2-core reference box.
	// It only sizes a cluster incarnation before the run has measured a
	// rate of its own (the cluster's driver takes a transaction count, not
	// a duration).
	seedTPS float64
}

// The YCSB stream shared by inproc-ycsb and both cluster workloads.
const (
	ycsbTheta      = 0.8
	ycsbKeysPerTxn = 3
)

var workloads = []*workload{
	{
		name: "inproc-ycsb",
		why: "emulation CPU path on a working set far above the fusion table: routing, migration churn, " +
			"locking, storage; no codec, TCP or journal work; exact twin of cluster-ycsb",
		nodes: 3, rows: 1_000_000, payload: 64, batch: 25, window: 50,
	},
	{
		name: "inproc-hotkey",
		why: "98% single-key increments on 8 hot rows per node: admission (lock wait) dominates latency, " +
			"routing and migration are noise, the hot set fits the fusion table",
		nodes: 4, rows: 4096, payload: 8, batch: 256, window: 1024, hotKey: true,
	},
	{
		name: "cluster-ycsb",
		why: "the inproc-ycsb stream on 3 hermesd processes over loopback TCP without fsync: gob codec, " +
			"TCP and reliable link, standalone leader, TxnDone completion do ~90% of the work",
		cluster: true, nodes: 3, rows: 1_000_000, payload: 64, batch: 25, window: 50, seedTPS: 4500,
	},
	{
		name: "cluster-durable",
		why: "cluster-ycsb with fsync=batch: every delivered frame is journalled and acks wait for the " +
			"covering fsync, so journal and group-commit cost is the difference to cluster-ycsb",
		cluster: true, fsync: "batch", nodes: 3, rows: 1_000_000, payload: 64, batch: 25, window: 50, seedTPS: 3200,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// spec is the workload's YCSB stream as the harness describes it: what the
// cluster's driver process generates from, and what RunTwin replays.
func (w *workload) spec(seed int64, skip, txns int) harness.WorkloadSpec {
	return harness.WorkloadSpec{
		Kind: harness.WorkloadYCSB, Seed: seed, Txns: txns, Skip: skip,
		Rows: w.rows, KeysPerTxn: ycsbKeysPerTxn, Payload: w.payload,
		Theta: ycsbTheta, Window: w.window,
	}
}

func (w *workload) generator(seed int64) generator {
	if w.hotKey {
		return newHotKeyGen(seed, w.nodes, w.rows)
	}
	return newYCSBGen(w.spec(seed, 0, 1))
}

// metricDecl declares a metric the benchmark reports; BENCHMARK.json lists
// the same declarations and a test keeps the two in step.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see, reported by the
// untraced run. Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression. The three
// timing metrics sit at the contract's ceiling: the A/A spread recorded in
// README.md is machine weather of 5–15% on the 2-vCPU reference box, and
// a tighter bound would flag unchanged code.
var endToEnd = []metricDecl{
	{"setup_s", "s", lower, 0.25},
	{"throughput_tps", "txn/s", higher, 0.25},
	{"lat_mean_ms", "ms", lower, 0.25},
	{"cpu_us_per_txn", "us", lower, 0.25},
	{"net_bytes_per_txn", "B", lower, 0.07},
}

// perLayer are the single-layer metrics of the traced run: counters the
// layers already export, read after the run, and isolated probes that time
// a layer's public calls. The prefix is the module the number belongs to.
var perLayer = []metricDecl{
	// engine: where a transaction's time goes inside a node, exact
	// latency percentiles, data movement, and how the run itself went.
	{Name: "engine.sched_ms", Unit: "ms", Better: lower},
	{Name: "engine.lock_wait_ms", Unit: "ms", Better: lower},
	{Name: "engine.queue_wait_ms", Unit: "ms", Better: lower},
	{Name: "engine.storage_ms", Unit: "ms", Better: lower},
	{Name: "engine.remote_wait_ms", Unit: "ms", Better: lower},
	{Name: "engine.other_ms", Unit: "ms", Better: lower},
	{Name: "engine.unattributed_pct", Unit: "%", Better: lower},
	{Name: "engine.lat_p50_ms", Unit: "ms", Better: lower},
	{Name: "engine.lat_p95_ms", Unit: "ms", Better: lower},
	{Name: "engine.lat_p99_ms", Unit: "ms", Better: lower},
	{Name: "engine.lat_samples", Unit: "count", Better: higher},
	{Name: "engine.migrations_per_txn", Unit: "1/txn", Better: lower},
	{Name: "engine.remote_reads_per_txn", Unit: "1/txn", Better: lower},
	{Name: "engine.lost_acks", Unit: "count", Better: lower},
	{Name: "engine.stalls", Unit: "count", Better: lower},
	{Name: "engine.stall_s", Unit: "s", Better: lower},
	{Name: "engine.rss_peak_mb", Unit: "MB", Better: lower},

	{Name: "core.route_us_per_txn", Unit: "us", Better: lower},
	{Name: "core.route_batch_us", Unit: "us", Better: lower},
	{Name: "core.route_allocs_per_batch", Unit: "count", Better: lower},
	{Name: "router.calvin_route_batch_us", Unit: "us", Better: lower},

	{Name: "fusion.put_ns", Unit: "ns", Better: lower},
	{Name: "fusion.touch_ns", Unit: "ns", Better: lower},
	{Name: "fusion.evictions_per_put", Unit: "1/op", Better: lower},
	{Name: "fusion.evictions_per_txn", Unit: "1/txn", Better: lower},
	{Name: "fusion.owner_moves_per_txn", Unit: "1/txn", Better: lower},

	{Name: "lock.acquire_release_ns", Unit: "ns", Better: lower},
	{Name: "lock.hot_acquire_release_ns", Unit: "ns", Better: lower},
	{Name: "qexec.admit_ns_per_txn", Unit: "ns", Better: lower},

	{Name: "storage.read_ns", Unit: "ns", Better: lower},
	{Name: "storage.write_ns", Unit: "ns", Better: lower},
	{Name: "storage.checkpoint_ms", Unit: "ms", Better: lower},

	{Name: "sequencer.seal_to_deliver_us", Unit: "us", Better: lower},
	{Name: "sequencer.txns_per_batch", Unit: "count", Better: higher},

	{Name: "tx.gob_encode_ns", Unit: "ns", Better: lower},
	{Name: "tx.gob_decode_ns", Unit: "ns", Better: lower},
	{Name: "tx.gob_bytes_per_req", Unit: "B", Better: lower},

	{Name: "network.chan_send_ns", Unit: "ns", Better: lower},
	{Name: "network.tcp_rtt_us", Unit: "us", Better: lower},
	{Name: "network.tcp_deliver_bytes_per_txn", Unit: "B", Better: lower},
	{Name: "network.reliable_send_ns", Unit: "ns", Better: lower},
	{Name: "network.msgs_per_txn", Unit: "1/txn", Better: lower},
	{Name: "network.retransmits_per_ktxn", Unit: "1/ktxn", Better: lower},
	{Name: "network.dups_per_ktxn", Unit: "1/ktxn", Better: lower},

	{Name: "journal.append_ns", Unit: "ns", Better: lower},
	{Name: "journal.append_durable_us", Unit: "us", Better: lower},
	{Name: "journal.bytes_per_frame", Unit: "B", Better: lower},
	{Name: "journal.fsyncs_per_ktxn", Unit: "1/ktxn", Better: lower},
	{Name: "journal.batched_acks_per_fsync", Unit: "count", Better: higher},

	{Name: "durable.save_ms", Unit: "ms", Better: lower},
	{Name: "durable.load_ms", Unit: "ms", Better: lower},
	{Name: "durable.bytes_per_row", Unit: "B", Better: lower},

	{Name: "harness.build_s", Unit: "s", Better: lower},
	{Name: "harness.start_s", Unit: "s", Better: lower},
	{Name: "harness.seed_s", Unit: "s", Better: lower},
	{Name: "harness.quiesce_ms", Unit: "ms", Better: lower},
	{Name: "harness.twin_match", Unit: "count", Better: higher},
	{Name: "harness.recover_s", Unit: "s", Better: lower},
	{Name: "harness.recover_frames", Unit: "count", Better: lower},

	{Name: "telemetry.traced_tps", Unit: "txn/s", Better: higher},
	{Name: "telemetry.overhead_pct", Unit: "%", Better: lower},

	{Name: "bench.gen_ns_per_txn", Unit: "ns", Better: lower},
	{Name: "bench.poll_late_ms", Unit: "ms", Better: lower},
	{Name: "bench.little_vs_driver_pct", Unit: "%", Better: lower},
}
