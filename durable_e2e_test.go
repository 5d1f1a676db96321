package hermes_test

import (
	"testing"
	"time"

	"hermes/internal/harness"
)

// Durable-restart e2e scale: 3 real OS processes with fsync'd journals,
// a durable checkpoint taken between two workload phases, and a worker
// SIGKILLed mid-phase-two with its page-cache surrogate wiped — so the
// restart rebuilds strictly from what reached disk.
const (
	durWorkers    = 3
	durRows       = 4000
	durPhase1Txns = 600 // multiple of durBatch: the phase-1 tail flush is a no-op
	durPhase2Txns = 600
	durBatch      = 25
	durWindow     = 50
	durPayload    = 64
	durTheta      = 0.8
	durKeysPerTxn = 3
	durSeed       = 42
	durKillWorker = 2
)

// TestClusterDurableRestart is the crash-consistency claim end to end: run
// phase one, checkpoint every worker durably (rotating the journals), run
// the stream's continuation, and mid-way SIGKILL a worker AND wipe
// everything its disk never fsynced. The restarted process may use nothing
// but its on-disk checkpoint + journal suffix — and the cluster's final
// digests must still be byte-identical to an in-process twin that executed
// the whole stream with no faults at all. A hermesd worker carries no cost
// model, so its roles run inline on the bucket worker; the hand-off path's
// crash recovery is covered by the chaos suite's dispatch-path tests.
func TestClusterDurableRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process durable e2e skipped in -short mode")
	}
	if _, err := harness.HermesdBinary(); err != nil {
		t.Fatalf("building hermesd: %v", err)
	}
	t.Run("inline", runDurableRestart)
}

func runDurableRestart(t *testing.T) {
	dir := t.TempDir()
	saveArtifactsOnFailure(t, dir)

	c, err := harness.StartCluster(harness.ClusterConfig{
		Workers:   durWorkers,
		Policy:    "hermes",
		Rows:      durRows,
		Payload:   durPayload,
		BatchSize: durBatch,
		Fsync:     "batch",
		Dir:       dir,
	})
	if err != nil {
		t.Fatalf("starting cluster: %v", err)
	}
	defer c.Close()
	if err := c.Seed(); err != nil {
		t.Fatalf("seeding cluster: %v", err)
	}

	base := harness.WorkloadSpec{
		Kind:       harness.WorkloadYCSB,
		Seed:       durSeed,
		Rows:       durRows,
		KeysPerTxn: durKeysPerTxn,
		Payload:    durPayload,
		Theta:      durTheta,
		Window:     durWindow,
	}

	// Phase one: the stream's prefix, then a durable checkpoint on every
	// worker. Phase-one length is a batch multiple, so its tail flush seals
	// nothing early and batch composition matches one continuous run.
	phase1 := base
	phase1.Txns = durPhase1Txns
	if err := c.Run(phase1); err != nil {
		t.Fatalf("starting phase 1: %v", err)
	}
	if res, err := c.WaitRun(120 * time.Second); err != nil {
		t.Fatalf("phase 1: %v", err)
	} else if res.Committed != durPhase1Txns {
		t.Fatalf("phase 1 committed %d of %d", res.Committed, durPhase1Txns)
	}
	if err := c.CheckpointAll(30 * time.Second); err != nil {
		t.Fatalf("checkpointing: %v", err)
	}

	// Phase two: the exact continuation (Skip consumes phase one from the
	// same RNG). Mid-run, worker 2 dies hard: SIGKILL plus a page-cache
	// wipe that truncates every file back to its last-fsynced mark.
	phase2 := base
	phase2.Skip = durPhase1Txns
	phase2.Txns = durPhase2Txns
	if err := c.Run(phase2); err != nil {
		t.Fatalf("starting phase 2: %v", err)
	}
	killAt := int64(durPhase2Txns * 2 / 5)
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Status()
		if err != nil {
			t.Fatalf("polling run status: %v", err)
		}
		if st.Completed >= killAt || st.Done {
			if st.Done {
				t.Logf("phase 2 finished before the kill point (%d/%d); killing post-run", st.Completed, durPhase2Txns)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase 2 never reached the kill point: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.KillWorker(durKillWorker); err != nil {
		t.Fatalf("killing worker %d: %v", durKillWorker, err)
	}
	if err := c.WipeWorkerStorage(durKillWorker); err != nil {
		t.Fatalf("wiping worker %d storage: %v", durKillWorker, err)
	}
	if err := c.RestartWorker(durKillWorker); err != nil {
		t.Fatalf("restarting worker %d: %v", durKillWorker, err)
	}

	res, err := c.WaitRun(120 * time.Second)
	if err != nil {
		for i := 0; i < durWorkers; i++ {
			var q map[string]any
			if gerr := c.Get(i, "/quiesce", &q); gerr == nil {
				t.Logf("worker %d quiesce: %+v", i, q)
			}
		}
		var next map[string]any
		if gerr := c.Get(0, "/next", &next); gerr == nil {
			t.Logf("leader next: %+v", next)
		}
		t.Fatalf("waiting for phase 2: %v", err)
	}
	if res.Committed != durPhase2Txns {
		t.Fatalf("phase 2 committed %d of %d", res.Committed, durPhase2Txns)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatalf("quiescing: %v", err)
	}

	digests, err := c.Digests()
	if err != nil {
		t.Fatalf("collecting digests: %v", err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("collecting stats: %v", err)
	}
	st := stats[durKillWorker]
	if !st.RestoredCheckpoint {
		t.Errorf("restarted worker %d did not restore a checkpoint: %+v", durKillWorker, st)
	}
	if st.JournalBase == 0 {
		t.Errorf("restarted worker %d journal base = 0, want a rotated journal", durKillWorker)
	}
	if st.Incarnation < 2 {
		t.Errorf("restarted worker %d incarnation = %d, want >= 2", durKillWorker, st.Incarnation)
	}
	for i, ps := range stats {
		// The restarted worker's save counter is legitimately zero: its
		// checkpoint was written by the previous incarnation.
		if i != durKillWorker && ps.CheckpointSaves < 1 {
			t.Errorf("worker %d reports %d checkpoint saves, want >= 1", i, ps.CheckpointSaves)
		}
		if ps.JournalFsyncs == 0 {
			t.Errorf("worker %d reports zero journal fsyncs under policy batch", i)
		}
	}

	// The fault-free twin executes the whole stream in one go; the
	// checkpointed, crashed, wiped and restarted cluster must match it
	// byte for byte.
	full := base
	full.Txns = durPhase1Txns + durPhase2Txns
	twin, err := harness.RunTwin(harness.TwinConfig{
		Workers:   durWorkers,
		Policy:    "hermes",
		Rows:      durRows,
		Payload:   durPayload,
		BatchSize: durBatch,
	}, full)
	if err != nil {
		t.Fatalf("running in-process twin: %v", err)
	}
	if twin.Result.Committed != int64(full.Txns) {
		t.Fatalf("twin committed %d of %d", twin.Result.Committed, full.Txns)
	}
	if len(digests) != len(twin.Digests) {
		t.Fatalf("cluster produced %d digests, twin %d", len(digests), len(twin.Digests))
	}
	for i := range digests {
		if digests[i] != twin.Digests[i] {
			t.Errorf("node %d digest diverges from the fault-free twin:\n  cluster: %+v\n  twin:    %+v",
				i, digests[i], twin.Digests[i])
		}
	}
	if !t.Failed() {
		t.Logf("%d+%d txns, checkpoint + SIGKILL + page-cache wipe on worker %d, digests match twin",
			durPhase1Txns, durPhase2Txns, durKillWorker)
	}
}
