package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"hermes/internal/engine"
	"hermes/internal/harness"
	"hermes/internal/telemetry"
)

// environment is what a bench process prepares once: where the module is,
// where it may write, and the hermesd binary the clusters spawn.
type environment struct {
	root    string // module root (the checkout)
	out     string // bench/out: results, spans, binaries, cluster scratch
	hermesd string
	buildS  float64
}

// prepare locates the module, creates bench/out and — when a cluster will
// run — builds hermesd there, ahead of anything timed. Everything the
// benchmark writes stays below bench/out.
func prepare(needHermesd bool) (*environment, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "hermesd")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				break
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("bench: run from inside the hermes module (no go.mod with cmd/hermesd above the working directory)")
		}
		dir = parent
	}
	env := &environment{root: dir, out: filepath.Join(dir, "bench", "out")}
	env.hermesd = filepath.Join(env.out, "bin", "hermesd")
	if err := os.MkdirAll(filepath.Join(env.out, "run"), 0o755); err != nil {
		return nil, err
	}
	if !needHermesd {
		return env, nil
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", env.hermesd, "./cmd/hermesd")
	cmd.Dir = env.root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building hermesd: %v\n%s", err, msg)
	}
	env.buildS = time.Since(t0).Seconds()
	return env, nil
}

// tracedRing is each process's telemetry ring in a traced run. A ring must
// hold a whole incarnation (about 6 events per transaction per process) or
// CollectTrace loses the oldest spans, so it also caps a traced
// incarnation's size.
const (
	tracedRing    = 1 << 18
	tracedMaxTxns = tracedRing / 6
)

// clusterSystem runs a workload on three hermesd processes over loopback
// TCP. The client is the harness's own closed-loop driver inside worker 0;
// this process only starts it and polls /runstatus.
type clusterSystem struct {
	env       *environment
	w         *workload
	seed      int64
	telemetry bool // lifecycle tracing on in every process, trace collected

	dir  string
	c    *harness.Cluster
	pids []int

	spec     harness.WorkloadSpec // the running incarnation
	base     []harness.ProcStats  // counters before the run started
	last     progress
	pollErrs int
	// Lost-completion detection: when the whole stream is submitted and
	// the count stops moving, ask every layer whether it is idle.
	lastMove  time.Time
	idleSince time.Time
	idleWhy   string
}

func newClusterSystem(env *environment, w *workload, seed int64, telemetry bool) *clusterSystem {
	return &clusterSystem{env: env, w: w, seed: seed, telemetry: telemetry}
}

func (s *clusterSystem) boot(rec *spanRec, parent int) (bootTimes, error) {
	var times bootTimes
	var err error
	if s.dir, err = os.MkdirTemp(filepath.Join(s.env.out, "run"), s.w.name+"-"); err != nil {
		return times, err
	}
	cfg := harness.ClusterConfig{
		Workers: s.w.nodes, Policy: "hermes", Rows: s.w.rows, Payload: s.w.payload,
		BatchSize: s.w.batch, Fsync: s.w.fsync, TraceOff: !s.telemetry,
		Dir: s.dir, BinPath: s.env.hermesd,
	}
	if s.telemetry {
		cfg.TraceRing = tracedRing
	}
	sp := rec.start(parent, "harness.StartCluster")
	t0 := time.Now()
	s.c, err = harness.StartCluster(cfg)
	times.startS = time.Since(t0).Seconds()
	rec.end(sp)
	if err != nil {
		return times, err
	}
	sp = rec.start(parent, "harness.Seed")
	t0 = time.Now()
	err = s.c.Seed()
	times.seedS = time.Since(t0).Seconds()
	rec.end(sp)
	s.pids = childPIDs(s.dir)
	if err == nil && len(s.pids) != s.w.nodes {
		err = fmt.Errorf("found %d hermesd children of this process, want %d", len(s.pids), s.w.nodes)
	}
	return times, err
}

func (s *clusterSystem) start(_ *spanRec, _, skip, size int) error {
	if s.telemetry {
		size = min(size, tracedMaxTxns/s.w.batch*s.w.batch)
	}
	s.spec = s.w.spec(s.seed, skip, size)
	var err error
	if s.base, err = s.c.Stats(); err != nil {
		return err
	}
	s.lastMove = time.Now()
	return s.c.Run(s.spec)
}

func (s *clusterSystem) stopSubmitting() {} // the driver runs its fixed count

func (s *clusterSystem) poll() (progress, error) {
	st, err := s.c.Status()
	if err != nil {
		// A loaded control plane may miss a poll; a dead one is an error.
		if s.pollErrs++; s.pollErrs > 100 {
			return progress{}, fmt.Errorf("/runstatus: %w", err)
		}
		return s.last, nil
	}
	s.pollErrs = 0
	if st.Err != "" {
		return progress{}, fmt.Errorf("cluster driver: %s", st.Err)
	}
	p := progress{
		submitted: st.Submitted, completed: st.Completed, cpu: procsCPU(s.pids),
		done: st.Done, tail: st.Submitted == st.Total,
	}
	now := time.Now()
	if p.completed != s.last.completed {
		s.lastMove, s.idleSince = now, time.Time{}
	}
	if !p.done && p.tail && now.Sub(s.lastMove) > 200*time.Millisecond {
		if why, idle := s.idle(); !idle {
			s.idleSince = time.Time{}
		} else if s.idleSince.IsZero() {
			s.idleSince, s.idleWhy = now, why
		} else if now.Sub(s.idleSince) > 200*time.Millisecond {
			p.lost = true
		}
	}
	s.last = p
	return p, nil
}

// idle reports whether every layer of every process has nothing left to do
// while the client still waits: the leader holds nothing, every scheduler
// consumed the whole sealed stream, no lock is queued, and no reliable
// link has an unacknowledged or undelivered message. Completions still
// outstanding then were lost, not delayed.
func (s *clusterSystem) idle() (string, bool) {
	var next struct {
		Seq     uint64 `json:"seq"`
		Pending int    `json:"pending"`
	}
	if err := s.c.Get(0, "/next", &next); err != nil || next.Pending != 0 {
		return "", false
	}
	waiting := 0
	for i := 0; i < s.w.nodes; i++ {
		var q engine.WorkerQuiesceInfo
		if err := s.c.Get(i, "/quiesce", &q); err != nil ||
			q.Scheduled != next.Seq || q.QueuedLockKeys != 0 || q.Backlog != 0 {
			return "", false
		}
		waiting += q.Pending
	}
	scrapes, err := s.c.Metrics()
	if err != nil || harness.MetricSum(scrapes, "hermes_transport_unacked") != 0 ||
		harness.MetricSum(scrapes, "hermes_transport_backlog") != 0 {
		return "", false
	}
	return fmt.Sprintf("every process idle at sealed batch %d (all scheduled, no queued locks, links drained) "+
		"with %d client waiters never notified: completions lost", next.Seq, waiting), true
}

func (s *clusterSystem) finish(rec *spanRec, parent int, p progress) (*incarnationReport, error) {
	rep := &incarnationReport{}
	for _, pid := range s.pids {
		rep.rssPeakMB += rssPeakMB(pid)
	}
	// Settled = safe to compare state: a clean quiesce after a finished
	// run, or the all-idle state of lost completions (the data is all
	// there; only the client was never told).
	settled := p.lost
	switch {
	case p.done:
		sp := rec.start(parent, "harness.Quiesce")
		t0 := time.Now()
		err := s.c.Quiesce(10 * time.Second)
		rep.settle = time.Since(t0)
		rec.end(sp)
		if err != nil {
			rep.unsettled = err.Error()
		}
		settled = err == nil
		if st, err := s.c.Status(); err == nil && st.Result != nil {
			rep.driverAvgMs = st.Result.AvgMs
		}
	case p.lost:
		rep.unsettled = s.idleWhy
	default:
		rep.unsettled = "no completion for " + stallAfter.String()
		if err := s.c.Quiesce(100 * time.Millisecond); err != nil {
			rep.unsettled += ": " + err.Error()
		}
	}

	if err := s.readCounters(&rep.ctr); err != nil {
		return nil, err
	}
	if s.telemetry {
		sp := rec.start(parent, "harness.CollectTrace")
		ct, err := s.c.CollectTrace()
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		rep.latencies = commitLatencies(ct)
	}
	if !settled {
		return rep, nil
	}

	sp := rec.start(parent, "harness.Digests")
	digests, err := s.c.Digests()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start(parent, "harness.RunTwin")
	twin, err := harness.RunTwin(harness.TwinConfig{
		Workers: s.w.nodes, Policy: "hermes", Rows: s.w.rows, Payload: s.w.payload, BatchSize: s.w.batch,
	}, s.spec)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	if len(digests) != len(twin.Digests) {
		return nil, fmt.Errorf("cluster has %d node digests, its in-process twin %d", len(digests), len(twin.Digests))
	}
	for i := range digests {
		if digests[i] != twin.Digests[i] {
			return nil, fmt.Errorf("node %d digest %+v differs from its in-process twin's %+v (spec %+v)",
				i, digests[i], twin.Digests[i], s.spec)
		}
	}
	if rep.ctr.committed != int64(s.spec.Txns) {
		return nil, fmt.Errorf("cluster committed %d of %d transactions yet matches the twin", rep.ctr.committed, s.spec.Txns)
	}
	rep.twinChecked = true
	return rep, nil
}

// readCounters fills c from /stats (relative to the pre-run baseline),
// /metrics, /next and /phases.
func (s *clusterSystem) readCounters(c *counters) error {
	stats, err := s.c.Stats()
	if err != nil {
		return err
	}
	for i, st := range stats {
		b := s.base[i]

		c.committed += st.Committed - b.Committed
		c.netMsgs += st.NetMsgs - b.NetMsgs
		c.netBytes += st.NetBytes - b.NetBytes
		c.retransmits += st.Retransmits - b.Retransmits
		c.dups += st.DupsDropped - b.DupsDropped
		c.fsyncs += st.JournalFsyncs - b.JournalFsyncs
		c.batchedAcks += st.JournalBatchedAcks - b.JournalBatchedAcks
	}
	scrapes, err := s.c.Metrics()
	if err != nil {
		return err
	}
	c.migrations = int64(harness.MetricSum(scrapes, "hermes_migration_records_total"))
	c.remoteReads = int64(harness.MetricSum(scrapes, "hermes_remote_reads_total"))
	c.fusionEvictions = int64(harness.MetricSum(scrapes[:1], "hermes_fusion_evictions_total"))
	c.fusionOwnerMoves = int64(harness.MetricSum(scrapes[:1], "hermes_fusion_owner_moves_total"))
	for _, m := range scrapes {
		batches := m["hermes_routing_batches_total"]
		c.routing += time.Duration(batches * m["hermes_routing_us_per_batch"] * 1e3)
		c.routingTxns += int64(batches) * int64(s.w.batch)
	}
	var next struct {
		Seq    uint64 `json:"seq"`
		Sealed int64  `json:"sealed_txns"`
	}
	if err := s.c.Get(0, "/next", &next); err != nil {
		return err
	}
	c.seqBatches, c.seqTxns = int64(next.Seq), next.Sealed

	phases, err := s.c.PhaseSummaries()
	if err != nil {
		return err
	}
	sum := func(comp telemetry.Component) float64 {
		ps := phases[comp.String()]
		return ps.MeanMs * float64(ps.Count)
	}
	c.phaseMs = [numPhases]float64{
		phaseSched: sum(telemetry.CompScheduling), phaseLockWait: sum(telemetry.CompLockWait),
		phaseQueueWait: sum(telemetry.CompQueuePlan) + sum(telemetry.CompQueueWait),
		phaseStorage:   sum(telemetry.CompStorage), phaseRemoteWait: sum(telemetry.CompRemoteWait),
		phaseOther: sum(telemetry.CompOther),
	}
	c.phaseCommits = phases[telemetry.CompTotal.String()].Count
	return nil
}

// commitLatencies stitches the cluster trace and returns, per committed
// transaction, client submit → commit on the clock-aligned timeline.
func commitLatencies(ct *harness.ClusterTrace) []time.Duration {
	var out []time.Duration
	for _, tl := range ct.Stitch() {
		var enq, com int64
		for _, ev := range tl.Events {
			switch ev.Phase {
			case telemetry.PhaseEnqueued:
				enq = ev.AlignedTS
			case telemetry.PhaseCommitted:
				com = ev.AlignedTS
			}
		}
		if enq != 0 && com > enq {
			out = append(out, time.Duration(com-enq))
		}
	}
	return out
}

func (s *clusterSystem) close() {
	if s.c != nil {
		// SIGKILL, not /shutdown: a process with leaked waiters spends its
		// whole graceful-drain timeout waiting for them.
		for i := 0; i < s.w.nodes; i++ {
			_ = s.c.KillWorker(i) // an error means it is already gone
		}
		_ = s.c.Close() // every process is reaped; only listeners and logs remain
		s.c = nil
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch below bench/out; a leftover is harmless
		s.dir = ""
	}
}
