package harness

import (
	"reflect"
	"testing"
	"time"

	"hermes/internal/chaos"
	"hermes/internal/leaktest"
)

// TestSupervisorRevivesKilledWorker SIGKILLs a worker mid-run and never
// restarts it from the test: the heartbeat supervisor must detect the dead
// control plane, respawn the process in recovery mode, and the run must
// still commit everything.
func TestSupervisorRevivesKilledWorker(t *testing.T) {
	c := startTestCluster(t, "hermes")
	super := c.StartSupervisor()
	spec := WorkloadSpec{
		Kind: WorkloadYCSB, Seed: 42, Txns: 1200, Rows: 4000,
		KeysPerTxn: 3, Payload: 64, Theta: 0.8, Window: 50,
	}
	if err := c.Run(spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed >= int64(spec.Txns/3) || st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never reached the kill point: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.KillWorker(2); err != nil {
		t.Fatal(err)
	}
	res, err := c.WaitRun(120 * time.Second)
	if err != nil {
		dumpClusterState(t, c)
		t.Fatal(err)
	}
	if res.Committed != int64(spec.Txns) {
		t.Fatalf("committed %d of %d", res.Committed, spec.Txns)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		dumpClusterState(t, c)
		t.Fatal(err)
	}
	st := super.Stats()
	if st.TotalRestarts() == 0 {
		t.Fatalf("supervisor performed no restarts: %+v", st)
	}
	if st.Workers[2].Misses == 0 {
		t.Errorf("supervisor counted no missed probes for the killed worker: %+v", st.Workers[2])
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if inc := stats[2].Incarnation; inc < 2 {
		t.Errorf("revived worker reports incarnation %d, want >= 2", inc)
	}
}

// TestSupervisorBreakerOpens exhausts a supervisor with a budget of 1: the first
// kill is repaired, the second must trip the circuit breaker and leave the
// worker down instead of restarting forever.
func TestSupervisorBreakerOpens(t *testing.T) {
	c := startTestCluster(t, "calvin")
	super := c.startSupervisor(1)
	waitRevived := func(restarts int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for super.Stats().Workers[1].Restarts < restarts || c.getProc(1) == nil {
			if time.Now().After(deadline) {
				t.Fatalf("worker 1 not revived to %d restarts: %+v", restarts, super.Stats().Workers[1])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := c.KillWorker(1); err != nil {
		t.Fatal(err)
	}
	waitRevived(1)
	if err := c.KillWorker(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !super.Stats().Workers[1].BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened after the budget was spent: %+v", super.Stats().Workers[1])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if p := c.getProc(1); p != nil {
		t.Error("breaker is open but the worker was restarted anyway")
	}
	if got := super.Stats().Workers[1].Restarts; got != 1 {
		t.Errorf("restarts = %d, want exactly the budget of 1", got)
	}
}

// TestSupervisorKillUnderPartitionLeaksNothing is the teardown-hygiene
// check for the whole fault stack: a worker is SIGKILLed while the data
// plane is partitioned, the supervisor revives it through the outage (its
// probes use the direct control plane), and after Close neither the proxy
// plane, the supervisor, nor the orchestrator may leave a goroutine
// behind. The schedule passed in must come back untouched: one reused
// across clusters, or shared by parallel tests, must not change.
func TestSupervisorKillUnderPartitionLeaksNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster tests skipped in -short mode")
	}
	if _, err := HermesdBinary(); err != nil {
		t.Fatalf("building hermesd: %v", err)
	}
	defer leaktest.Check(t)()

	sched := &chaos.Schedule{Name: "partition-only", Seed: 7}
	before := *sched
	c, err := StartCluster(ClusterConfig{
		Workers: 3, Policy: "hermes", Rows: 4000, Payload: 64, BatchSize: 25,
		Faults: sched,
		Dir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !reflect.DeepEqual(*sched, before) {
		t.Fatalf("StartCluster wrote into its schedule: %+v, was %+v", *sched, before)
	}
	if err := c.Seed(); err != nil {
		t.Fatal(err)
	}
	super := c.StartSupervisor()
	spec := WorkloadSpec{
		Kind: WorkloadYCSB, Seed: 11, Txns: 600, Rows: 4000,
		KeysPerTxn: 3, Payload: 64, Theta: 0.8, Window: 50,
	}
	if err := c.Run(spec); err != nil {
		t.Fatal(err)
	}
	// Partition worker 2 away, then SIGKILL it mid-outage: the supervisor
	// must detect and revive it while its data links are still dark.
	c.NetPlane().PartitionBetween([]int{0, 1}, []int{2}, 1500*time.Millisecond)
	if err := c.KillWorker(2); err != nil {
		t.Fatal(err)
	}
	res, err := c.WaitRun(120 * time.Second)
	if err != nil {
		dumpClusterState(t, c)
		t.Fatal(err)
	}
	if res.Committed != int64(spec.Txns) {
		t.Fatalf("committed %d of %d", res.Committed, spec.Txns)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		dumpClusterState(t, c)
		t.Fatal(err)
	}
	if super.Stats().TotalRestarts() == 0 {
		t.Fatal("supervisor performed no restarts under the partition")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
