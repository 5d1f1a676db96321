package hermes_test

import (
	"testing"
	"time"

	"hermes/internal/chaos"
	"hermes/internal/harness"
)

// TestClusterNetChaos is the self-healing acceptance run: three real
// hermesd processes with every inter-process data link routed through the
// seeded chaos socket plane (asymmetric WAN latency between node groups, one
// mid-stream reset of the leader link, a 2-second bidirectional partition
// that heals on its own), plus a SIGKILL of worker 2 mid-run that only the
// heartbeat supervisor — never the test — repairs. The run must commit
// every transaction and quiesce to digests byte-identical to the
// fault-free in-process twin: below the reliable layer, all these faults
// are allowed to shift timing and nothing else.
func TestClusterNetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster fault run skipped in -short mode")
	}
	if _, err := harness.HermesdBinary(); err != nil {
		t.Fatalf("building hermesd: %v", err)
	}

	// Latencies are CI-scale (the WAN bench uses the realistic 5ms/40ms
	// profile); the partition keeps its full 2s so heal-and-catch-up is
	// exercised for real.
	sched := chaos.ClusterWANKillSchedule(
		e2eSeed, time.Millisecond, 8*time.Millisecond, 2*time.Millisecond, 2*time.Second)

	dir := t.TempDir()
	saveArtifactsOnFailure(t, dir)
	c, err := harness.StartCluster(harness.ClusterConfig{
		Workers:   e2eWorkers,
		Policy:    "hermes",
		Rows:      e2eRows,
		Payload:   e2ePayload,
		BatchSize: e2eBatch,
		Faults:    &sched,
		Dir:       dir,
	})
	if err != nil {
		t.Fatalf("starting cluster: %v", err)
	}
	defer c.Close()
	if err := c.Seed(); err != nil {
		t.Fatalf("seeding cluster: %v", err)
	}

	super := c.StartSupervisor()

	spec := harness.WorkloadSpec{
		Kind:       harness.WorkloadYCSB,
		Seed:       e2eSeed,
		Txns:       e2eTxns,
		Rows:       e2eRows,
		KeysPerTxn: e2eKeysPerTxn,
		Payload:    e2ePayload,
		Theta:      e2eTheta,
		Window:     e2eWindow,
	}
	// Run arms the schedule: the reset and the partition fire at their
	// offsets from here, while the WAN link shapes are already live, and
	// worker 2 is SIGKILLed at its point in the committed stream. No
	// RestartWorker follows: the supervisor must notice the dead control
	// plane and bring the process back on its own.
	if err := c.Run(spec); err != nil {
		t.Fatalf("starting run: %v", err)
	}

	res, err := c.WaitRun(240 * time.Second)
	if err != nil {
		t.Fatalf("waiting for run: %v", err)
	}
	if res.Committed != e2eTxns {
		t.Fatalf("cluster committed %d of %d transactions", res.Committed, e2eTxns)
	}
	if err := c.Quiesce(60 * time.Second); err != nil {
		t.Fatalf("quiescing: %v", err)
	}

	// The faults must actually have happened: the supervisor restarted the
	// victim (incarnation bumped), and the proxy plane reset live streams.
	if got := super.Stats().TotalRestarts(); got == 0 {
		t.Error("supervisor performed no restarts; the kill was repaired by something else or not at all")
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("collecting stats: %v", err)
	}
	if inc := stats[sched.Kills[0].Node].Incarnation; inc < 2 {
		t.Errorf("killed worker reports incarnation %d, want >= 2", inc)
	}
	ns := c.NetPlane().Stats()
	if ns.Resets == 0 {
		t.Error("fault plane reset no connections; the reset/partition events were a no-op")
	}

	twin, err := harness.RunTwin(harness.TwinConfig{
		Workers:   e2eWorkers,
		Policy:    "hermes",
		Rows:      e2eRows,
		Payload:   e2ePayload,
		BatchSize: e2eBatch,
	}, spec)
	if err != nil {
		t.Fatalf("running in-process twin: %v", err)
	}
	digests, err := c.Digests()
	if err != nil {
		t.Fatalf("collecting digests: %v", err)
	}
	if len(digests) != len(twin.Digests) {
		t.Fatalf("cluster produced %d digests, twin %d", len(digests), len(twin.Digests))
	}
	for i := range digests {
		if digests[i] != twin.Digests[i] {
			t.Errorf("node %d digest diverges from the in-process twin under %s:\n  cluster: %+v\n  twin:    %+v",
				i, sched, digests[i], twin.Digests[i])
		}
	}
	if !t.Failed() {
		var retransmits int64
		for _, st := range stats {
			retransmits += st.Retransmits
		}
		t.Logf("%s: %d txns, %d supervisor restarts, %d stream resets, %d retransmits, digests match twin",
			sched, res.Committed, super.Stats().TotalRestarts(), ns.Resets, retransmits)
	}
}
