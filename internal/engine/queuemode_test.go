package engine

import (
	"testing"
	"time"

	"hermes/internal/sequencer"
	"hermes/internal/tx"
)

func newQueueCluster(t *testing.T, nodes int, pf PolicyFactory) *Cluster {
	t.Helper()
	ids := make([]tx.NodeID, nodes)
	for i := range ids {
		ids[i] = tx.NodeID(i)
	}
	c, err := New(Config{
		Nodes:  ids,
		Policy: pf,
		Seq:    sequencer.Config{BatchSize: 8, Interval: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestQueueModeSerializableCounters re-runs the core serializability check
// on hot keys: concurrent conflicting increments must all apply exactly
// once under every routing policy, with no lock manager in the path.
func TestQueueModeSerializableCounters(t *testing.T) {
	const txns = 120
	for name, pf := range policies(4) {
		t.Run(name, func(t *testing.T) {
			c := newQueueCluster(t, 4, pf)
			loadCounters(c, testRows)
			var waits []<-chan struct{}
			for i := 0; i < txns; i++ {
				hot := tx.MakeKey(0, uint64(i%4))
				cold := tx.MakeKey(0, uint64(50+(i%100)))
				done, err := c.Submit(tx.NodeID(i%4), incProc(hot, cold))
				if err != nil {
					t.Fatal(err)
				}
				waits = append(waits, done)
			}
			mustDrain(t, c, 20*time.Second)
			for _, w := range waits {
				select {
				case <-w:
				default:
					t.Fatal("transaction reported drained but not completed")
				}
			}
			var sum uint64
			for i := 0; i < testRows; i++ {
				if v, ok := c.ReadRecord(tx.MakeKey(0, uint64(i))); ok {
					sum += counterVal(v)
				}
			}
			if sum != 2*txns {
				t.Fatalf("counter sum = %d, want %d", sum, 2*txns)
			}
			if got := c.Collector().Committed(); got != txns {
				t.Fatalf("Committed = %d, want %d", got, txns)
			}
		})
	}
}

// TestQueueModeBreakdownHasNoLockWait: with no lock manager in the path,
// the committed-latency breakdown must report LockWait exactly zero, with
// admission time showing up in QueueWait/QueuePlan instead.
func TestQueueModeBreakdownHasNoLockWait(t *testing.T) {
	pf := policies(3)["hermes"]
	c := newQueueCluster(t, 3, pf)
	loadCounters(c, testRows)
	for i := 0; i < 50; i++ {
		if err := c.SubmitAndWait(tx.NodeID(i%3), incProc(tx.MakeKey(0, uint64(i%7)))); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, c, 10*time.Second)
	bd := c.Collector().AvgBreakdown()
	if bd.LockWait != 0 {
		t.Fatalf("breakdown reported LockWait = %v, want 0", bd.LockWait)
	}
	if qp := c.Collector().QueuePlan(); qp.Batches == 0 {
		t.Fatal("no queue-planning cost recorded")
	}
}

// TestQueueModeGoroutineCount: with the cost model at zero no role may run
// on a goroutine of its own — not even one that waits on inbound records,
// which rides a mailbox continuation back into the bucket pool instead of
// parking. With a storage delay every role is handed to the executor pool,
// so the same cross-node workload distinguishes the two dispatch paths;
// requiring remote reads ensures the record-waiting (continuation) path
// actually ran rather than passing vacuously.
func TestQueueModeGoroutineCount(t *testing.T) {
	run := func(t *testing.T, storageDelay time.Duration) *Cluster {
		t.Helper()
		ids := []tx.NodeID{0, 1, 2}
		c, err := New(Config{
			Nodes:        ids,
			Policy:       policies(3)["calvin"],
			Seq:          sequencer.Config{BatchSize: 8, Interval: 2 * time.Millisecond},
			StorageDelay: storageDelay,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Stop)
		loadCounters(c, testRows)
		for i := 0; i < 60; i++ {
			// One key owned by node 0, one by node 2: every transaction
			// needs cross-node record pushes, so record-expecting roles
			// exist on every batch.
			near := tx.MakeKey(0, uint64(i%40))
			far := tx.MakeKey(0, uint64(150+(i%40)))
			if err := c.SubmitAndWait(tx.NodeID(i%3), incProc(near, far)); err != nil {
				t.Fatal(err)
			}
		}
		mustDrain(t, c, 20*time.Second)
		if rr := c.Collector().RemoteReads(); rr == 0 {
			t.Fatal("workload produced no remote reads; record-wait path not exercised")
		}
		return c
	}
	t.Run("inline", func(t *testing.T) {
		c := run(t, 0)
		if n := roleGoroutines(c); n != 0 {
			t.Fatalf("zero-cost roles ran on %d goroutines, want 0", n)
		}
	})
	t.Run("handoff", func(t *testing.T) {
		c := run(t, time.Microsecond)
		if n := roleGoroutines(c); n == 0 {
			t.Fatal("sleeping roles were never handed off; counter or dispatch is broken")
		}
	})
}

// roleGoroutines sums the roles handed to goroutines across all nodes. A
// zero-cost run must report zero — roles run inline and record waits are
// mailbox continuations on the bucket workers, never parked goroutines.
func roleGoroutines(c *Cluster) int64 {
	var n int64
	for _, nd := range c.nodeList() {
		n += nd.roleGoroutines.Load()
	}
	return n
}
