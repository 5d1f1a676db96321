package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hermes/internal/network"
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
	// The sealed log starts at the cut: nothing before it is kept.
	if got := len(c.TailSince(0)); got != 0 {
		t.Fatalf("sealed log holds %d batches after checkpoint, want 0", got)
	}

	// Keep running after the checkpoint; this is the tail recovery must
	// re-execute.
	workloadPhase(t, c, 25, 45)
	want := c.Fingerprint()
	tail := c.TailSince(cp.Seq)
	if len(tail) == 0 || tail[0].Seq != cp.Seq || len(c.TailSince(0)) != len(tail) {
		t.Fatalf("sealed log after the checkpoint holds %d batches, not exactly those from %d on", len(c.TailSince(0)), cp.Seq)
	}

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

// TestTailSinceStartsAtCheckpoint pins where the sealed log, the input
// recovery replays, starts and ends: empty before the first checkpoint
// without standbys, from each checkpoint's cut on after it, and a suffix
// of that for a later sequence.
func TestTailSinceStartsAtCheckpoint(t *testing.T) {
	c := newTestCluster(t, 2, policies(2)["hermes"])
	loadCounters(c, testRows)
	workloadPhase(t, c, 0, 5)
	if got := c.TailSince(0); len(got) != 0 {
		t.Fatalf("sealed log holds %d batches before any checkpoint, want 0", len(got))
	}
	for round := 0; round < 2; round++ {
		cp, err := c.Checkpoint(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		workloadPhase(t, c, 5, 15)
		next, _ := c.seq.Next()
		all := c.TailSince(0)
		if uint64(len(all)) != next-cp.Seq {
			t.Fatalf("round %d: sealed log holds %d batches, want %d (%d..%d)", round, len(all), next-cp.Seq, cp.Seq, next-1)
		}
		for i, b := range all {
			if b.Seq != cp.Seq+uint64(i) {
				t.Fatalf("round %d: entry %d is batch %d, want %d", round, i, b.Seq, cp.Seq+uint64(i))
			}
		}
		if got := c.TailSince(cp.Seq + 3); len(got) != len(all)-3 || got[0].Seq != cp.Seq+3 {
			t.Fatalf("round %d: TailSince(%d) = %d batches", round, cp.Seq+3, len(got))
		}
		if got := c.TailSince(next); got != nil {
			t.Fatalf("round %d: TailSince past the end = %d batches, want none", round, len(got))
		}
	}
}

// TestNodeRefusesGapAfterCheckpoint pins the order check across a
// checkpoint: the node wants the cut's batch next, so one handed the batch
// after it refuses that batch instead of scheduling it, and the drain
// names the refusal.
func TestNodeRefusesGapAfterCheckpoint(t *testing.T) {
	c := newTestCluster(t, 2, policies(2)["hermes"])
	loadCounters(c, testRows)
	workloadPhase(t, c, 0, 5)
	cp, err := c.Checkpoint(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	skip := cp.Seq + 1
	if err := c.tr.Send(network.Message{From: LeaderNode, To: 0, Type: network.MsgSeqDeliver,
		Seq: skip, Batch: &tx.Batch{Seq: skip}}); err != nil {
		t.Fatal(err)
	}
	// The transport delivers asynchronously: wait until node 0 has either
	// refused the batch or scheduled it.
	n0 := c.node(0)
	for deadline := time.Now().Add(5 * time.Second); n0.refusal() == "" && n0.Scheduled() == cp.Seq; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node 0 neither refused nor scheduled batch %d", skip)
		}
	}
	want := fmt.Sprintf("node 0 refused batch %d, wanted %d", skip, cp.Seq)
	if err := c.DrainDetail(time.Second); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("drain error %v does not say %q", err, want)
	}
}
