package engine

import (
	"testing"
	"time"

	"hermes/internal/tx"
)

// workloadPhase drives deterministic traffic: submit one transaction at a
// time so the totally ordered input is identical across runs.
func workloadPhase(t *testing.T, c *Cluster, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		k1 := tx.MakeKey(0, uint64(i*3%testRows))
		k2 := tx.MakeKey(0, uint64(i*7%testRows))
		if err := c.SubmitAndWait(tx.NodeID(i%2), incProc(k1, k2)); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, c, 10*time.Second)
	}
}

func TestCheckpointRecoverIdentity(t *testing.T) {
	pf := policies(2)["hermes"]
	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	workloadPhase(t, c, 0, 25)

	cp, err := c.Checkpoint(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Seq == 0 || len(cp.Stores) != 2 || cp.Routing == nil {
		t.Fatalf("checkpoint shape: seq=%d stores=%d routing=%v", cp.Seq, len(cp.Stores), cp.Routing)
	}
	// A successful checkpoint truncates the log behind the cut.
	if got := c.nodes[0].cmdlog.Len(); got != 0 {
		t.Fatalf("command log holds %d batches after checkpoint, want 0", got)
	}

	// Keep running after the checkpoint; this is the tail recovery must
	// re-execute.
	workloadPhase(t, c, 25, 45)
	want := c.Fingerprint()
	tail := c.TailSince(cp.Seq)

	c2, err := Recover(Config{
		Nodes:  []tx.NodeID{0, 1},
		Policy: pf,
		Seq:    c.cfg.Seq,
	}, cp, tail)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	if got := c2.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %x != original %x", got, want)
	}

	// The recovered cluster must keep working, with the total order
	// resuming past the replayed input.
	if err := c2.SubmitAndWait(0, incProc(tx.MakeKey(0, 5))); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c2, 10*time.Second)
	v, ok := c2.ReadRecord(tx.MakeKey(0, 5))
	if !ok {
		t.Fatal("record missing after recovery")
	}
	_ = v
}

func TestCheckpointWithEmptyTail(t *testing.T) {
	pf := policies(2)["hermes"]
	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	workloadPhase(t, c, 0, 10)
	cp, err := c.Checkpoint(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Fingerprint()
	c2, err := Recover(Config{Nodes: []tx.NodeID{0, 1}, Policy: pf, Seq: c.cfg.Seq}, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	if got := c2.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %x != original %x", got, want)
	}
}

func TestRecoverRejectsBadTail(t *testing.T) {
	pf := policies(2)["hermes"]
	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	workloadPhase(t, c, 0, 5)
	cp, err := c.Checkpoint(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Gap in the tail sequence must be rejected.
	bad := []*tx.Batch{{Seq: cp.Seq + 5}}
	if _, err := Recover(Config{Nodes: []tx.NodeID{0, 1}, Policy: pf, Seq: c.cfg.Seq}, cp, bad); err == nil {
		t.Fatal("out-of-order tail accepted")
	}
}

func TestRecoverRejectsUnknownNode(t *testing.T) {
	pf := policies(2)["hermes"]
	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	cp, err := c.Checkpoint(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(Config{Nodes: []tx.NodeID{0}, Policy: pf}, cp, nil); err == nil {
		t.Fatal("checkpoint with extra node accepted")
	}
}

func TestCheckpointPreservesFusionState(t *testing.T) {
	pf := policies(2)["hermes"]
	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	// Force cross-partition fusion so the table is non-trivial.
	for i := 0; i < 15; i++ {
		kA := tx.MakeKey(0, uint64(i))     // node 0
		kB := tx.MakeKey(0, uint64(150+i)) // node 1
		if err := c.SubmitAndWait(0, incProc(kA, kB)); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, c, 10*time.Second)
	}
	origFusion := c.nodes[0].policy.Placement().Fusion.Fingerprint()
	if c.nodes[0].policy.Placement().Fusion.Len() == 0 {
		t.Fatal("test setup produced no fusion entries")
	}
	cp, err := c.Checkpoint(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Recover(Config{Nodes: []tx.NodeID{0, 1}, Policy: pf, Seq: c.cfg.Seq}, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	if got := c2.nodes[0].policy.Placement().Fusion.Fingerprint(); got != origFusion {
		t.Fatal("routing replay did not rebuild the fusion table")
	}
}
