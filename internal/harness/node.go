package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"hermes"
	"hermes/internal/diskio"
	"hermes/internal/durable"
	"hermes/internal/engine"
	"hermes/internal/network"
	"hermes/internal/partition"
	"hermes/internal/sequencer"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

const (
	// drainTimeout bounds the graceful-shutdown quiesce attempt (SIGTERM,
	// /shutdown): in-flight work gets this long to land before teardown.
	drainTimeout = 2 * time.Second
	// runTimeout bounds a single /run workload from the process's side;
	// the orchestrator normally enforces a tighter one.
	runTimeout = 5 * time.Minute
)

// NodeConfig assembles one hermesd cluster process.
type NodeConfig struct {
	// Self is this process's worker id; Workers the total worker count
	// (ids 0..Workers-1). Worker 0's process also hosts the sequencer
	// leader and the workload driver.
	Self    tx.NodeID
	Workers int
	// Addrs maps every data-plane transport id — each worker plus
	// engine.LeaderNode, which is worker 0's address — to its address. The
	// orchestrator bound all the listeners, so it knows every address
	// before any process starts.
	Addrs map[tx.NodeID]string
	// DataLn and ControlLn are this process's inherited listeners.
	DataLn    net.Listener
	ControlLn net.Listener
	// Policy, Rows, FusionCap, Alpha parameterize the routing replica;
	// they must be identical in every process and in the twin.
	Policy    string
	Rows      uint64
	FusionCap int
	Alpha     float64
	// BatchSize is the sequencer batch size (sealing is size-only).
	BatchSize int
	// Dir holds the process's delivery journal, incarnation counter, seed
	// spec, and checkpoint store (in Dir/checkpoints).
	Dir string
	// Fsync is the journal's fsync policy ("none"|"batch"; empty = none,
	// the legacy page-cache-durability mode). With "batch", acked input
	// survives host death, and a restart rebuilds state strictly from the
	// on-disk checkpoint + journal suffix.
	Fsync string
	// Recover marks a restarted process: it restores the newest durable
	// checkpoint (if any), re-seeds from the persisted seed spec
	// otherwise, and starts replaying its journal immediately instead of
	// waiting for /seed.
	Recover bool
	// TraceRing sizes the per-node telemetry event rings (events; rounded
	// up to a power of two). Zero keeps the default. Size it to hold a
	// whole run's events when the cluster trace will be collected: a
	// wrapped ring silently drops the oldest spans.
	TraceRing int
	// TraceOff starts the process with lifecycle tracing disabled (the
	// registry and /metrics stay live). The tracing-on-vs-off digest
	// equivalence gate runs cluster pairs differing only in this bit.
	TraceOff bool
}

// seedSpec is the record-stream description persisted at seeding time so a
// restarted process can rebuild its shard without the orchestrator's help.
type seedSpec struct {
	Rows    uint64 `json:"rows"`
	Payload int    `json:"payload"`
}

// valueSize is the size of a seeded row's value: a zero counter of
// Payload bytes, tx.CounterValue(Payload, 0) byte for byte.
func (sp seedSpec) valueSize() int { return max(sp.Payload, 8) }

const seedFile = "seed.json"

// NodeServer is the in-process runtime of one hermesd cluster process: a
// single engine worker over TCP, on worker 0 the co-hosted sequencer
// leader, and the control-plane HTTP server the orchestrator drives.
type NodeServer struct {
	cfg     NodeConfig
	workers []tx.NodeID
	jr      *network.Journal
	ckpt    *durable.Store
	tr      *network.TCPTransport
	cluster *engine.Cluster
	tel     *telemetry.Telemetry
	drv     *driver

	// restoredID is the checkpoint watermark this process restarted from
	// (0 + restored=false on a fresh or journal-only start). ckptMu
	// serializes checkpoint captures.
	restored   bool
	restoredID uint64
	ckptMu     sync.Mutex

	// leader is the sequencer leader on worker 0 (nil elsewhere). It rides
	// the worker's transport and reliable layer at engine.LeaderNode; it is
	// not restartable (see docs/CLUSTER.md), so its input is not journaled.
	leader *sequencer.Leader

	srv *http.Server

	mu      sync.Mutex
	started bool
	closed  bool
}

// NewNodeServer assembles the process runtime. A recovering process seeds
// its shard from the persisted spec and starts replaying its journal
// before this returns; a fresh process stays idle until /seed.
func NewNodeServer(cfg NodeConfig) (*NodeServer, error) {
	if cfg.Workers <= 0 || cfg.Self < 0 || int(cfg.Self) >= cfg.Workers {
		return nil, fmt.Errorf("harness: node %d outside worker set of %d", cfg.Self, cfg.Workers)
	}
	if cfg.DataLn == nil || cfg.ControlLn == nil {
		return nil, fmt.Errorf("harness: node %d: missing inherited listener", cfg.Self)
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("harness: node %d: batch size must be positive", cfg.Self)
	}
	workers := make([]tx.NodeID, cfg.Workers)
	for i := range workers {
		workers[i] = tx.NodeID(i)
	}
	pf, err := hermes.PolicyFactoryFor(hermes.Policy(cfg.Policy),
		partition.NewUniformRange(0, cfg.Rows, cfg.Workers), cfg.Alpha, cfg.FusionCap)
	if err != nil {
		return nil, err
	}

	policy, err := network.ParseSyncPolicy(cfg.Fsync)
	if err != nil {
		return nil, fmt.Errorf("harness: node %d: %w", cfg.Self, err)
	}
	ckpt, err := durable.Open(filepath.Join(cfg.Dir, "checkpoints"), nil)
	if err != nil {
		return nil, err
	}
	// Load the newest durable checkpoint before opening the journal: its
	// link floors must seed the journal's watermark tracking so rotated-away
	// senders still dedup correctly.
	var cp engine.WorkerCheckpoint
	cpID, haveCP, err := ckpt.Load(&cp)
	if err != nil {
		return nil, err
	}
	var floors map[tx.NodeID]network.LinkFloor
	if haveCP {
		floors = cp.Floors
	}
	jr, err := network.OpenJournalWith(cfg.Dir, network.JournalOpts{Policy: policy, Floors: floors})
	if err != nil {
		return nil, err
	}
	// A rotated journal (Base > 0) only holds frames past the checkpoint
	// cut; replaying it without the checkpoint would silently drop the
	// covered prefix and diverge. Refuse loudly.
	if !haveCP && jr.Base() > 0 {
		jr.Close()
		return nil, fmt.Errorf("harness: node %d: journal rotated to %d but no loadable checkpoint in %s",
			cfg.Self, jr.Base(), ckpt.Dir())
	}
	recovered := jr.Recovered()
	if haveCP {
		recovered, err = jr.RecoveredSince(cp.Delivered)
		if err != nil {
			jr.Close()
			return nil, fmt.Errorf("harness: node %d: checkpoint %d does not meet journal: %w",
				cfg.Self, cpID, err)
		}
	}
	ringSize := cfg.TraceRing
	if ringSize <= 0 {
		ringSize = 4096
	}
	tel := telemetry.New([]tx.NodeID{cfg.Self}, ringSize)
	if cfg.TraceOff {
		tel.Tracer().SetEnabled(false)
	}
	hostsLeader := cfg.Self == 0
	var hosted []tx.NodeID
	if hostsLeader {
		hosted = append(hosted, engine.LeaderNode)
	}
	tr := network.NewTCPTransportListener(cfg.Self, cfg.Addrs, cfg.DataLn, hosted...)
	// The journal and its floors are the worker's alone: the co-hosted
	// leader's input is neither journaled nor fsync-gated.
	cluster, err := engine.NewWorker(engine.WorkerConfig{
		Self:        cfg.Self,
		Workers:     workers,
		Transport:   tr,
		NetStats:    tr.Stats(),
		HostsLeader: hostsLeader,
		Link: network.ReliableOpts{
			Incarnation: jr.Incarnation(),
			Journal: func(id tx.NodeID) network.Durability {
				if id != cfg.Self {
					return nil
				}
				return jr
			},
			Floors:    jr.Floors(),
			Recovered: recovered,
		},
		Policy:    pf,
		Telemetry: tel,
	})
	if err != nil {
		tr.Close()
		jr.Close()
		return nil, err
	}

	s := &NodeServer{
		cfg:     cfg,
		workers: workers,
		jr:      jr,
		ckpt:    ckpt,
		tr:      tr,
		cluster: cluster,
		tel:     tel,
		drv:     newDriver(),
	}
	if haveCP {
		if err := cluster.RestoreWorkerState(&cp); err != nil {
			tr.Close()
			jr.Close()
			return nil, err
		}
		s.restored, s.restoredID = true, cpID
		log.Printf("harness: node %d restored checkpoint %d (journal base %d, %d recovered frames)",
			cfg.Self, cpID, jr.Base(), len(recovered))
	}
	s.registerProcMetrics()
	if hostsLeader {
		// Size-only sealing (no Interval): batch boundaries are a function
		// of the request stream alone, and the driver flushes the tail
		// deterministically.
		s.leader = sequencer.NewLeader(engine.LeaderNode, cluster.Reliable(), workers,
			sequencer.Config{BatchSize: cfg.BatchSize}, nil)
		s.leader.Start()
	}
	s.srv = &http.Server{Handler: s.mux()}

	if cfg.Recover {
		if err := s.seedFromFile(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// checkpointNow captures a settled worker's state, saves it durably, and
// rotates the journal behind it. The feed is paused around the capture, but
// the pause stops only the consumer — the pump keeps journaling arriving
// frames — so the cut is validated by re-reading the journal count after
// the capture: if input landed mid-capture the snapshot may not cover it,
// and the attempt aborts (the caller retries).
func (s *NodeServer) checkpointNow() (uint64, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	rel := s.cluster.Reliable()
	rel.Pause(s.cfg.Self)
	defer rel.Resume(s.cfg.Self)

	pre := s.jr.Count()
	cp, err := s.cluster.CaptureWorker()
	if err != nil {
		return 0, err
	}
	cp.Floors = s.jr.Floors()
	if post := s.jr.Count(); post != pre {
		return 0, fmt.Errorf("input arrived mid-capture (%d -> %d journal frames)", pre, post)
	}
	cp.Delivered = pre
	if err := s.ckpt.Save(cp.Delivered, cp); err != nil {
		return 0, err
	}
	// Checkpoint-then-rotate: the covered prefix may only be discarded once
	// the checkpoint is durable. A failed rotation is loud but non-fatal —
	// the journal merely keeps the prefix around.
	if err := s.jr.Rotate(cp.Delivered); err != nil {
		log.Printf("harness: node %d: journal rotation after checkpoint %d failed: %v",
			s.cfg.Self, cp.Delivered, err)
	}
	// A restart replays the journal, never the in-memory delivery log, so
	// the checkpoint sets no rewind floor there: the log keeps dropping
	// each frame once the worker has taken it.
	return cp.Delivered, nil
}

// Serve runs the control-plane HTTP server until Close.
func (s *NodeServer) Serve() error {
	err := s.srv.Serve(s.cfg.ControlLn)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// seed writes the local shard of the deterministic record stream and
// starts the worker. Every process makes the identical call; the routing
// replicas agree on placement, so each record lands in exactly one.
func (s *NodeServer) seed(spec seedSpec) (int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("harness: node %d is shut down", s.cfg.Self)
	}
	if s.started {
		s.mu.Unlock()
		return 0, fmt.Errorf("harness: node %d already seeded", s.cfg.Self)
	}
	s.mu.Unlock()
	if spec.Rows == 0 || spec.Rows != s.cfg.Rows {
		return 0, fmt.Errorf("harness: seed rows %d do not match the partitioning's %d rows",
			spec.Rows, s.cfg.Rows)
	}
	n := s.cluster.SeedRows(spec.Rows, spec.valueSize())
	data, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	// Crash-atomic: a restart never sees a torn seed spec, and the atomic
	// write survives the harness's page-cache wipe.
	if err := diskio.WriteFileAtomic(diskio.OSFS{}, filepath.Join(s.cfg.Dir, seedFile), append(data, '\n')); err != nil {
		return 0, err
	}
	s.startWorker()
	return n, nil
}

func (s *NodeServer) seedFromFile() error {
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, seedFile))
	if err != nil {
		return fmt.Errorf("harness: node %d recovering without a seed spec: %w", s.cfg.Self, err)
	}
	var spec seedSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("harness: node %d: corrupt seed spec: %w", s.cfg.Self, err)
	}
	// A restored checkpoint already embeds the seeded records (and
	// placement may have moved keys since seeding); re-seeding would
	// clobber migrated state. The spec is only replayed on a journal-only
	// restart.
	if !s.restored {
		s.cluster.SeedRows(spec.Rows, spec.valueSize())
	}
	// Seeding must complete before the worker starts: the reliable layer
	// replays the journal the moment the node consumes its feed, and
	// replayed batches must execute over the seeded store.
	s.startWorker()
	return nil
}

func (s *NodeServer) startWorker() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	s.cluster.StartWorker()
}

// registerProcMetrics exposes what only the process-level view knows as
// gauges in the telemetry registry (served at /metrics alongside the
// engine's own series): two link-layer counters, and the journal's and
// checkpoint store's counters.
func (s *NodeServer) registerProcMetrics() {
	reg := s.tel.Registry()
	rel := s.cluster.Reliable()
	reg.Gauge("hermes_net_socket_writes_total", "socket Write calls that carried frames",
		func() float64 { return float64(s.tr.SocketWrites()) })
	reg.Gauge("hermes_link_acks_total", "standalone link acknowledgements sent by the reliable layer",
		func() float64 { return float64(rel.Stats().Acks) })
	reg.Gauge("hermes_link_acks_piggybacked_total", "link acknowledgements carried on data frames by the reliable layer",
		func() float64 { return float64(rel.Stats().Piggybacked) })
	jstat := func(f func(network.JournalStats) int64) func() float64 {
		return func() float64 { return float64(f(s.jr.Stats())) }
	}
	cstat := func(f func(durable.Stats) int64) func() float64 {
		return func() float64 { return float64(f(s.ckpt.Stats())) }
	}
	reg.Gauge("hermes_journal_fsyncs_total", "journal fsync calls issued",
		jstat(func(st network.JournalStats) int64 { return st.Fsyncs }))
	reg.Gauge("hermes_journal_sync_failures_total", "journal fsyncs that returned an error",
		jstat(func(st network.JournalStats) int64 { return st.SyncFailures }))
	reg.Gauge("hermes_journal_batches_total", "group-commit fsync batches",
		jstat(func(st network.JournalStats) int64 { return st.Batches }))
	reg.Gauge("hermes_journal_batched_acks_total", "acks released by group-commit batches",
		jstat(func(st network.JournalStats) int64 { return st.BatchedAcks }))
	reg.Gauge("hermes_journal_append_retries_total", "journal appends repaired after short/torn writes",
		jstat(func(st network.JournalStats) int64 { return st.AppendRetries }))
	reg.Gauge("hermes_journal_torn_records_total", "torn tail frames truncated at recovery",
		jstat(func(st network.JournalStats) int64 { return st.TornRecords }))
	reg.Gauge("hermes_journal_corrupt_records_total", "corrupt frames quarantined at recovery",
		jstat(func(st network.JournalStats) int64 { return st.Corrupt }))
	reg.Gauge("hermes_journal_rotations_total", "journal rotations behind checkpoints",
		jstat(func(st network.JournalStats) int64 { return st.Rotations }))
	reg.Gauge("hermes_journal_base_frame", "absolute frame index the on-disk journal starts at",
		func() float64 { return float64(s.jr.Base()) })
	reg.Gauge("hermes_checkpoint_saves_total", "checkpoints written durably",
		cstat(func(st durable.Stats) int64 { return st.Saves }))
	reg.Gauge("hermes_checkpoint_last_save_seconds", "wall time of the most recent checkpoint save",
		func() float64 { return float64(s.ckpt.Stats().LastSaveNanos) / 1e9 })
	reg.Gauge("hermes_checkpoint_corrupt_skipped_total", "checkpoint files rejected by verification",
		cstat(func(st durable.Stats) int64 { return st.CorruptSkipped }))
}

// ProcStats is one process's counter snapshot, served at /stats.
type ProcStats struct {
	Node              int64  `json:"node"`
	Incarnation       uint64 `json:"incarnation"`
	Committed         int64  `json:"committed"`
	Aborted           int64  `json:"aborted"`
	NetMsgs           int64  `json:"net_msgs"`
	NetBytes          int64  `json:"net_bytes"` // the Message.WireSize model
	NetSocketBytes    int64  `json:"net_socket_bytes"`
	NetSocketWrites   int64  `json:"net_socket_writes"` // net_msgs ÷ this = frames per write
	LinkAcks          int64  `json:"link_acks"`         // standalone MsgLinkAcks sent
	Retransmits       int64  `json:"retransmits"`
	DupsDropped       int64  `json:"dups_dropped"`
	HandshakeFailures int64  `json:"handshake_failures"`
	WireFrameErrors   int64  `json:"wire_frame_errors"`
	// LinkAcksPiggybacked counts the link acks that rode data frames.
	LinkAcksPiggybacked int64 `json:"link_acks_piggybacked"`
	// MsgsByType splits NetMsgs and NetBytes by message type.
	MsgsByType map[string]network.TypeTotals `json:"msgs_by_type"`

	// Durability counters.
	RestoredCheckpoint bool   `json:"restored_checkpoint"`
	CheckpointID       uint64 `json:"checkpoint_id"`
	CheckpointSaves    int64  `json:"checkpoint_saves"`
	JournalBase        uint64 `json:"journal_base"`
	JournalFsyncs      int64  `json:"journal_fsyncs"`
	JournalBatches     int64  `json:"journal_batches"`
	JournalBatchedAcks int64  `json:"journal_batched_acks"`
	JournalTorn        int64  `json:"journal_torn"`
	JournalCorrupt     int64  `json:"journal_corrupt"`
}

// Format renders the snapshot for humans (hermesd -stats), every counter
// included — the durability block in particular, which otherwise only
// appears in the Prometheus text.
func (st ProcStats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d (incarnation %d)\n", st.Node, st.Incarnation)
	fmt.Fprintf(&b, "  txns:       committed=%d aborted=%d\n", st.Committed, st.Aborted)
	fmt.Fprintf(&b, "  network:    msgs=%d bytes=%d socket-bytes=%d socket-writes=%d link-acks=%d link-acks-piggybacked=%d retransmits=%d dups-dropped=%d handshake-failures=%d frame-errors=%d\n",
		st.NetMsgs, st.NetBytes, st.NetSocketBytes, st.NetSocketWrites, st.LinkAcks, st.LinkAcksPiggybacked, st.Retransmits, st.DupsDropped, st.HandshakeFailures, st.WireFrameErrors)
	b.WriteString("  by type:   ")
	for _, name := range slices.Sorted(maps.Keys(st.MsgsByType)) {
		fmt.Fprintf(&b, " %s=%d/%dB", name, st.MsgsByType[name].Msgs, st.MsgsByType[name].Bytes)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  durability: fsyncs=%d batches=%d batched-acks=%d torn=%d corrupt=%d\n",
		st.JournalFsyncs, st.JournalBatches, st.JournalBatchedAcks, st.JournalTorn, st.JournalCorrupt)
	fmt.Fprintf(&b, "  journal:    base-frame=%d\n", st.JournalBase)
	fmt.Fprintf(&b, "  checkpoint: saves=%d restored=%v", st.CheckpointSaves, st.RestoredCheckpoint)
	if st.RestoredCheckpoint {
		fmt.Fprintf(&b, " (id %d)", st.CheckpointID)
	}
	b.WriteByte('\n')
	return b.String()
}

func (s *NodeServer) stats() ProcStats {
	js, cs := s.jr.Stats(), s.ckpt.Stats()
	st := ProcStats{
		Node:              int64(s.cfg.Self),
		Incarnation:       s.jr.Incarnation(),
		Committed:         s.cluster.Collector().Committed(),
		Aborted:           s.cluster.Collector().Aborted(),
		NetSocketBytes:    s.tr.SocketBytes(),
		NetSocketWrites:   s.tr.SocketWrites(),
		HandshakeFailures: s.tr.HandshakeFailures(),
		WireFrameErrors:   s.tr.FrameErrors(),

		RestoredCheckpoint: s.restored,
		CheckpointID:       s.restoredID,
		CheckpointSaves:    cs.Saves,
		JournalBase:        s.jr.Base(),
		JournalFsyncs:      js.Fsyncs,
		JournalBatches:     js.Batches,
		JournalBatchedAcks: js.BatchedAcks,
		JournalTorn:        js.TornRecords,
		JournalCorrupt:     js.Corrupt,
	}
	st.NetMsgs, st.NetBytes = s.tr.Stats().Totals()
	st.MsgsByType = make(map[string]network.TypeTotals)
	for t, tt := range s.tr.Stats().ByType() {
		st.MsgsByType[t.String()] = tt
	}
	rs := s.cluster.Reliable().Stats()
	st.LinkAcks, st.LinkAcksPiggybacked = rs.Acks, rs.Piggybacked
	st.Retransmits, st.DupsDropped = rs.Retransmits, rs.DupsDropped
	return st
}

// leaderNext is the /next response: where the sealed stream stands.
type leaderNext struct {
	Seq     uint64 `json:"seq"`
	Sealed  int64  `json:"sealed_txns"`
	Pending int    `json:"pending"`
}

func (s *NodeServer) mux() http.Handler {
	mux := http.NewServeMux()
	// Telemetry first: /metrics, /trace, /debug/pprof and the index ride
	// the full observability handler; control routes override below.
	mux.Handle("/", s.tel.Handler())

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/seed", func(w http.ResponseWriter, r *http.Request) {
		var spec seedSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n, err := s.seed(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, map[string]any{"seeded": n, "incarnation": s.jr.Incarnation()})
	})
	// The driver's and the leader's routes answer on worker 0 only.
	leaderOnly := func(path string, h http.HandlerFunc) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if s.leader == nil {
				http.Error(w, "the leader and the driver run on worker 0", http.StatusBadRequest)
				return
			}
			h(w, r)
		})
	}
	leaderOnly("/run", func(w http.ResponseWriter, r *http.Request) {
		var spec WorkloadSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := spec.Validate(s.cfg.BatchSize); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		procs, err := spec.Procs()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !s.drv.start(len(procs)) {
			http.Error(w, "a run is already in progress or finished", http.StatusConflict)
			return
		}
		go s.drv.run(
			func(p tx.Procedure) (<-chan struct{}, error) { return s.cluster.Submit(s.cfg.Self, p) },
			procs, spec.Window, s.leader, runTimeout)
		writeJSON(w, map[string]any{"started": true, "total": len(procs)})
	})
	mux.HandleFunc("/runstatus", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.drv.status())
	})
	leaderOnly("/flush", func(w http.ResponseWriter, r *http.Request) {
		s.leader.Flush()
		fmt.Fprintln(w, "ok")
	})
	leaderOnly("/next", func(w http.ResponseWriter, r *http.Request) {
		seq, _ := s.leader.Next()
		st := s.leader.Stats()
		writeJSON(w, leaderNext{Seq: seq, Sealed: st.Txns, Pending: st.Pending})
	})
	mux.HandleFunc("/quiesce", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.cluster.WorkerQuiesce())
	})
	mux.HandleFunc("/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		id, err := s.checkpointNow()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, map[string]any{"checkpoint": id, "journal_base": s.jr.Base()})
	})
	mux.HandleFunc("/digest", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.cluster.NodeDigests()[0])
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.stats())
	})
	mux.HandleFunc("/shutdown", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "shutting down")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		go s.Close()
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Close shuts the process runtime down: it aborts any wedged driver,
// gives in-flight work a bounded drain, then tears down the leader, the
// engine, the transports, the journal, and the control server. Idempotent.
func (s *NodeServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	started := s.started
	s.mu.Unlock()

	s.drv.stop()
	if started {
		// Graceful drain: wait (bounded) for local in-flight work to land
		// so a SIGTERM between batches loses nothing.
		deadline := time.Now().Add(drainTimeout)
		for time.Now().Before(deadline) && !s.cluster.WorkerQuiesce().Settled() {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if s.leader != nil {
		s.leader.Stop()
	}
	s.cluster.Stop()
	s.jr.Close()
	return s.srv.Close()
}
