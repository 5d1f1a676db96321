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
		Nodes:    ids,
		Policy:   pf,
		Seq:      sequencer.Config{BatchSize: 8, Interval: 2 * time.Millisecond},
		ExecMode: ExecModeQueue,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestQueueModeSerializableCounters re-runs the core serializability check
// with the queue-oriented executor: concurrent conflicting increments must
// all apply exactly once under every routing policy, with no lock manager
// in the path.
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
		t.Fatalf("queue mode reported LockWait = %v, want 0", bd.LockWait)
	}
	if qp := c.Collector().QueuePlan(); qp.Batches == 0 {
		t.Fatal("no queue-planning cost recorded")
	}
}

// TestQueueModeGoroutineCount: queue mode must never spawn a
// per-transaction role goroutine — not even for roles that wait on inbound
// records, which ride a mailbox continuation back into the bucket pool
// instead of parking. Lock mode spawns one per involved role, so the same
// cross-node workload distinguishes the two paths; requiring remote reads
// ensures the record-waiting (continuation) path actually ran rather than
// passing vacuously.
func TestQueueModeGoroutineCount(t *testing.T) {
	run := func(t *testing.T, mode string) *Cluster {
		t.Helper()
		ids := []tx.NodeID{0, 1, 2}
		c, err := New(Config{
			Nodes:    ids,
			Policy:   policies(3)["calvin"],
			Seq:      sequencer.Config{BatchSize: 8, Interval: 2 * time.Millisecond},
			ExecMode: mode,
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
	t.Run("queue", func(t *testing.T) {
		c := run(t, ExecModeQueue)
		if n := c.RoleGoroutines(); n != 0 {
			t.Fatalf("queue mode spawned %d role goroutines, want 0", n)
		}
	})
	t.Run("lock", func(t *testing.T) {
		c := run(t, ExecModeLock)
		if n := c.RoleGoroutines(); n == 0 {
			t.Fatal("lock mode reported zero role goroutines; counter is broken")
		}
	})
}

func TestUnknownExecModeRejected(t *testing.T) {
	pf := policies(2)["calvin"]
	_, err := New(Config{
		Nodes:    []tx.NodeID{0, 1},
		Policy:   pf,
		Seq:      sequencer.Config{BatchSize: 4, Interval: time.Millisecond},
		ExecMode: "optimistic",
	})
	if err == nil {
		t.Fatal("unknown ExecMode accepted")
	}
}
