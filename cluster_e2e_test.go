package hermes_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hermes/internal/harness"
)

// Cluster e2e scale: 3 real OS processes over loopback TCP, a worker
// SIGKILLed and restarted mid-run, and the final per-node digests compared
// byte for byte against the in-process emulation of the same seed.
const (
	e2eWorkers    = 3
	e2eRows       = 4000
	e2eTxns       = 1200
	e2eBatch      = 25
	e2eWindow     = 50
	e2ePayload    = 64
	e2eTheta      = 0.8
	e2eKeysPerTxn = 3
	e2eSeed       = 42
	e2eKillWorker = 2
)

// TestClusterE2E boots a real multi-process cluster per policy × workload,
// drives the deterministic stream through it while killing and restarting
// a worker mid-run, and requires the surviving cluster's final state
// digests to be byte-identical to the single-process emulation's. This is
// the determinism claim crossing OS process boundaries: batch composition,
// routing, execution order, and recovery replay all have to agree exactly.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster e2e skipped in -short mode")
	}
	if _, err := harness.HermesdBinary(); err != nil {
		t.Fatalf("building hermesd: %v", err)
	}
	for _, tc := range []struct {
		policy   string
		workload string
	}{
		{"hermes", harness.WorkloadYCSB},
		{"hermes", harness.WorkloadHotspot},
		{"calvin", harness.WorkloadYCSB},
		{"calvin", harness.WorkloadHotspot},
	} {
		tc := tc
		t.Run(tc.policy+"/"+tc.workload, func(t *testing.T) {
			runClusterCase(t, tc.policy, tc.workload)
		})
	}
}

func runClusterCase(t *testing.T, policy, workload string) {
	dir := t.TempDir()
	saveArtifactsOnFailure(t, dir)

	c, err := harness.StartCluster(harness.ClusterConfig{
		Workers:   e2eWorkers,
		Policy:    policy,
		Rows:      e2eRows,
		Payload:   e2ePayload,
		BatchSize: e2eBatch,
		Dir:       dir,
	})
	if err != nil {
		t.Fatalf("starting cluster: %v", err)
	}
	defer c.Close()
	if err := c.Seed(); err != nil {
		t.Fatalf("seeding cluster: %v", err)
	}

	spec := harness.WorkloadSpec{
		Kind:       workload,
		Seed:       e2eSeed,
		Txns:       e2eTxns,
		Rows:       e2eRows,
		KeysPerTxn: e2eKeysPerTxn,
		Payload:    e2ePayload,
		Theta:      e2eTheta,
		Window:     e2eWindow,
	}
	if err := c.Run(spec); err != nil {
		t.Fatalf("starting run: %v", err)
	}

	// SIGKILL a worker once the run is measurably underway, then bring it
	// back: the restarted process re-seeds, bumps its incarnation, replays
	// its journal, and rejoins on the same ports while peers retransmit.
	killAt := int64(e2eTxns * 2 / 5)
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Status()
		if err != nil {
			t.Fatalf("polling run status: %v", err)
		}
		if st.Completed >= killAt || st.Done {
			if st.Done {
				t.Logf("run finished before the kill point (%d/%d); killing post-run", st.Completed, e2eTxns)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never reached the kill point: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.KillWorker(e2eKillWorker); err != nil {
		t.Fatalf("killing worker %d: %v", e2eKillWorker, err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := c.RestartWorker(e2eKillWorker); err != nil {
		t.Fatalf("restarting worker %d: %v", e2eKillWorker, err)
	}

	res, err := c.WaitRun(120 * time.Second)
	if err != nil {
		t.Fatalf("waiting for run: %v", err)
	}
	if res.Committed != e2eTxns {
		t.Fatalf("cluster committed %d of %d transactions", res.Committed, e2eTxns)
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
	if inc := stats[e2eKillWorker].Incarnation; inc < 2 {
		t.Errorf("restarted worker %d reports incarnation %d, want >= 2", e2eKillWorker, inc)
	}
	checkWireStats(t, stats)
	if scrapes, err := c.Metrics(); err != nil {
		t.Errorf("scraping /metrics: %v", err)
	} else if got := harness.MetricSum(scrapes, "hermes_txn_committed_total"); got == 0 {
		// The committed counter's exact name is telemetry's business; sum a
		// few likely spellings before declaring the scrape empty.
		if harness.MetricSum(scrapes, "hermes_committed_total") == 0 &&
			harness.MetricSum(scrapes, "committed_total") == 0 &&
			len(scrapes[0]) == 0 {
			t.Errorf("/metrics scrape of worker 0 came back empty")
		}
	}

	twin, err := harness.RunTwin(harness.TwinConfig{
		Workers:   e2eWorkers,
		Policy:    policy,
		Rows:      e2eRows,
		Payload:   e2ePayload,
		BatchSize: e2eBatch,
	}, spec)
	if err != nil {
		t.Fatalf("running in-process twin: %v", err)
	}
	if twin.Result.Committed != e2eTxns {
		t.Fatalf("twin committed %d of %d transactions", twin.Result.Committed, e2eTxns)
	}
	if len(digests) != len(twin.Digests) {
		t.Fatalf("cluster produced %d digests, twin %d", len(digests), len(twin.Digests))
	}
	for i := range digests {
		if digests[i] != twin.Digests[i] {
			t.Errorf("node %d digest diverges from the in-process twin:\n  cluster: %+v\n  twin:    %+v",
				i, digests[i], twin.Digests[i])
		}
	}
	if !t.Failed() {
		t.Logf("%s/%s: %d txns across %d processes (1 killed+restarted), %.0f txn/s, digests match twin",
			policy, workload, res.Committed, e2eWorkers, res.QPS)
	}
}

// checkWireStats sums the workers' /stats. The processes talked over real
// sockets: the frames they wrote are counted next to the WireSize model,
// and none was damaged. The link layer's amortisation is readable: every
// frame was a socket write, and acks are cumulative per drain, so there is
// at most one per message they acknowledge, whether it left on its own or
// rode a data frame. Client requests never cross a
// socket: the driver submits on worker 0, whose process hosts the leader.
func checkWireStats(t *testing.T, stats []harness.ProcStats) {
	t.Helper()
	var sum harness.ProcStats
	var forwards int64
	for _, st := range stats {
		sum.NetMsgs += st.NetMsgs
		sum.NetBytes += st.NetBytes
		sum.NetSocketBytes += st.NetSocketBytes
		sum.NetSocketWrites += st.NetSocketWrites
		sum.LinkAcks += st.LinkAcks
		sum.LinkAcksPiggybacked += st.LinkAcksPiggybacked
		sum.WireFrameErrors += st.WireFrameErrors
		forwards += st.MsgsByType["SeqForward"].Msgs
	}
	if sum.NetBytes == 0 || sum.NetSocketBytes == 0 || sum.WireFrameErrors != 0 {
		t.Errorf("stats net_bytes=%d net_socket_bytes=%d wire_frame_errors=%d, want traffic on both counters and no frame errors",
			sum.NetBytes, sum.NetSocketBytes, sum.WireFrameErrors)
	}
	if acks := sum.LinkAcks + sum.LinkAcksPiggybacked; sum.NetSocketWrites == 0 || acks == 0 || acks > sum.NetMsgs-sum.LinkAcks {
		t.Errorf("stats net_msgs=%d net_socket_writes=%d link_acks=%d link_acks_piggybacked=%d, want writes counted and no more acks than sequenced messages",
			sum.NetMsgs, sum.NetSocketWrites, sum.LinkAcks, sum.LinkAcksPiggybacked)
	}
	if forwards != 0 {
		t.Errorf("%d SeqForward messages crossed a socket, want none", forwards)
	}
}

// saveArtifactsOnFailure copies the per-process logs (and journals dir
// listing) into $CLUSTER_E2E_ARTIFACTS when the test fails, so CI can
// upload them.
func saveArtifactsOnFailure(t *testing.T, dir string) {
	t.Cleanup(func() {
		dest := os.Getenv("CLUSTER_E2E_ARTIFACTS")
		if !t.Failed() || dest == "" {
			return
		}
		sub := filepath.Join(dest, filepath.Base(t.Name()))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Logf("artifacts: %v", err)
			return
		}
		logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
		for _, src := range logs {
			if err := copyFile(src, filepath.Join(sub, filepath.Base(src))); err != nil {
				t.Logf("artifacts: %v", err)
			}
		}
		t.Logf("artifacts: %d process logs copied to %s", len(logs), sub)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copying %s: %w", src, err)
	}
	return out.Close()
}
