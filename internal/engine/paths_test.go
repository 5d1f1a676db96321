package engine

import (
	"testing"
	"time"

	"hermes/internal/tx"
)

// TestReadOnlyTransactionsAllPolicies exercises the read-only path (no
// writers, no migrations for most policies) across every policy.
func TestReadOnlyTransactionsAllPolicies(t *testing.T) {
	for name, pf := range policies(3) {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, 3, pf)
			loadCounters(c, testRows)
			// Distributed read-only transaction.
			proc := &tx.OpProc{Reads: []tx.Key{tx.MakeKey(0, 1), tx.MakeKey(0, 150)}}
			for i := 0; i < 10; i++ {
				if err := c.SubmitAndWait(tx.NodeID(i%3), proc); err != nil {
					t.Fatal(err)
				}
			}
			mustDrain(t, c, 10*time.Second)
			if got := c.Collector().Committed(); got != 10 {
				t.Fatalf("Committed = %d", got)
			}
			// Reads must not have modified anything.
			for _, k := range []tx.Key{tx.MakeKey(0, 1), tx.MakeKey(0, 150)} {
				if v, ok := c.ReadRecord(k); !ok || counterVal(v) != 0 {
					t.Fatalf("read-only txn changed %v: %v", k, v)
				}
			}
		})
	}
}

// TestCalvinMultiMasterAbort verifies the abort path when multiple
// writers execute the same transaction: both must roll back.
func TestCalvinMultiMasterAbort(t *testing.T) {
	pf := policies(2)["calvin"]
	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	k0, k1 := tx.MakeKey(0, 1), tx.MakeKey(0, 150) // one per node
	proc := &tx.OpProc{
		Reads:   []tx.Key{k0, k1},
		Writes:  []tx.Key{k0, k1},
		Value:   []byte("poison"),
		AbortIf: func(map[tx.Key][]byte) string { return "logic abort" },
	}
	if err := c.SubmitAndWait(0, proc); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 10*time.Second)
	if c.Collector().Aborted() != 1 {
		t.Fatalf("Aborted = %d, want 1", c.Collector().Aborted())
	}
	if c.Collector().Committed() != 0 {
		t.Fatalf("Committed = %d, want 0", c.Collector().Committed())
	}
	for _, k := range []tx.Key{k0, k1} {
		v, ok := c.ReadRecord(k)
		if !ok || string(v) == "poison" {
			t.Fatalf("abort leaked write at %v", k)
		}
	}
	// The system keeps running after the abort.
	if err := c.SubmitAndWait(0, incProc(k0, k1)); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 10*time.Second)
	if v, _ := c.ReadRecord(k0); counterVal(v) != 1 {
		t.Fatal("post-abort increment lost")
	}
}

// TestWriteOnlyBlindInsert exercises blind writes to records that do not
// exist yet (the TPC-C insert path) under single-master policies.
func TestWriteOnlyBlindInsert(t *testing.T) {
	for _, name := range []string{"hermes", "gstore", "tpart", "leap"} {
		t.Run(name, func(t *testing.T) {
			pf := policies(2)[name]
			c := newTestCluster(t, 2, pf)
			loadCounters(c, testRows)
			fresh := tx.MakeKey(2, 12345) // table 2: never loaded
			proc := &tx.OpProc{
				Reads:  []tx.Key{tx.MakeKey(0, 1)},
				Writes: []tx.Key{fresh},
				Value:  []byte("inserted"),
			}
			if err := c.SubmitAndWait(1, proc); err != nil {
				t.Fatal(err)
			}
			mustDrain(t, c, 10*time.Second)
			v, ok := c.ReadRecord(fresh)
			if !ok || string(v) != "inserted" {
				t.Fatalf("insert lost: %q, %v", v, ok)
			}
			if c.TotalRecords() != testRows+1 {
				t.Fatalf("records = %d, want %d", c.TotalRecords(), testRows+1)
			}
		})
	}
}

// TestRepeatedProvisionCycle adds and removes the same node twice; the
// replicas must stay consistent throughout.
func TestRepeatedProvisionCycle(t *testing.T) {
	pf := policies(3)["hermes"]
	c := newTestCluster(t, 3, pf)
	loadCounters(c, testRows)
	for cycle := 0; cycle < 2; cycle++ {
		done, err := c.Provision(nil, []tx.NodeID{2})
		if err != nil {
			t.Fatal(err)
		}
		c.seq.Flush()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("remove not acknowledged")
		}
		for i := 0; i < 10; i++ {
			if err := c.SubmitAndWait(0, incProc(tx.MakeKey(0, uint64(i)))); err != nil {
				t.Fatal(err)
			}
		}
		done, err = c.Provision([]tx.NodeID{2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.seq.Flush()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("re-add not acknowledged")
		}
		for i := 0; i < 10; i++ {
			if err := c.SubmitAndWait(1, incProc(tx.MakeKey(0, uint64(140+i)))); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustDrain(t, c, 20*time.Second)
	// Replica routing state must agree across all nodes.
	var want uint64
	for i, id := range c.order {
		f := c.nodes[id].policy.Placement().Fusion
		if i == 0 {
			want = f.Fingerprint()
		} else if f.Fingerprint() != want {
			t.Fatalf("node %d fusion diverged after provision cycles", id)
		}
	}
	if c.TotalRecords() != testRows {
		t.Fatalf("records = %d, want %d", c.TotalRecords(), testRows)
	}
}

// TestSubmitViaStandbyNode: clients may connect to a standby node's
// front-end; its sequencer still forwards to the leader.
func TestSubmitViaStandbyNode(t *testing.T) {
	ids := []tx.NodeID{0, 1, 2}
	pf := policies(2) // policies over 2 nodes; node 2 is standby
	c, err := New(Config{
		Nodes:  ids,
		Active: ids[:2],
		Policy: pf["hermes"],
		Seq:    c8seq(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	loadCounters(c, testRows)
	if err := c.SubmitAndWait(2, incProc(tx.MakeKey(0, 5))); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 10*time.Second)
	if v, _ := c.ReadRecord(tx.MakeKey(0, 5)); counterVal(v) != 1 {
		t.Fatal("standby-submitted txn lost")
	}
}
