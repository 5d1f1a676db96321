package engine

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/sequencer"
	"hermes/internal/tx"
	"hermes/internal/zipf"
)

// TestSteadyStateAllocsPerTxn pins the heap cost of the engine's hot path
// — admission, routing-role derivation, execution, mailboxes and release
// — per committed transaction. The shape is inproc-ycsb's at a smaller
// scale: an in-process Hermes cluster of 3 nodes, 200k rows of 64 B, a
// fusion table of rows/40, scrambled YCSB θ = 0.8 over 3 keys per
// transaction, batches of 25 and a closed loop of 50 in flight. The
// process-wide Mallocs and TotalAlloc deltas over 40k transactions after
// a 20k warm-up include the client's own procedure, request and waiter
// channel.
//
// Measured on a 2-vCPU x86-64 box: 96.0 objects and 8,099 B per txn
// before the hot path was made allocation-free (per-transaction maps in
// admission, role derivation, execution and the mailbox, a list node per
// fusion insert), 18.7 objects and 3,920 B after.
func TestSteadyStateAllocsPerTxn(t *testing.T) {
	const (
		nodes  = 3
		rows   = 200_000
		theta  = 0.8
		keys   = 3
		batch  = 25
		window = 50
		warm   = 20_000
		runs   = 40_000

		maxObjects = 40
		maxBytes   = 4096
	)
	ids := []tx.NodeID{0, 1, 2}
	base := partition.NewUniformRange(0, rows, nodes)
	c, err := New(Config{
		Nodes: ids,
		Policy: func(a []tx.NodeID) router.Policy {
			return core.New(base, a, core.DefaultConfig(rows/40))
		},
		Seq: sequencer.Config{BatchSize: batch, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for r := uint64(0); r < rows; r++ {
		c.LoadRecord(tx.MakeKey(0, r), make([]byte, 64))
	}

	z := zipf.NewScrambled(rand.New(rand.NewSource(3)), rows, theta)
	next := func() *tx.CounterProc {
		ks := make([]tx.Key, 0, keys)
	draw:
		for len(ks) < keys {
			k := tx.MakeKey(0, z.Next())
			for _, have := range ks {
				if have == k {
					continue draw
				}
			}
			ks = append(ks, k)
		}
		return &tx.CounterProc{Reads: ks, Writes: ks, Payload: 64}
	}
	// The closed loop keeps a ring of the in-flight waiters and waits for
	// the oldest before submitting past the window; it submits whole
	// batches only, since the leader seals on size.
	var ring [window]<-chan struct{}
	submitted := 0
	drive := func(n int) {
		for i := 0; i < n; i++ {
			slot := &ring[submitted%window]
			if *slot != nil {
				<-*slot
			}
			done, err := c.Submit(0, next())
			if err != nil {
				t.Fatal(err)
			}
			*slot = done
			submitted++
		}
		for i := range ring {
			if ring[i] != nil {
				<-ring[i]
				ring[i] = nil
			}
		}
	}
	drive(warm)
	committed0 := c.Collector().Committed()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	drive(runs)
	runtime.ReadMemStats(&after)
	committed := c.Collector().Committed() - committed0
	if committed < runs {
		t.Fatalf("committed %d of %d transactions", committed, runs)
	}
	objects := float64(after.Mallocs-before.Mallocs) / float64(committed)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(committed)
	t.Logf("%.1f objects and %.0f B per committed txn", objects, bytes)
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("%.1f objects and %.0f B per committed txn, want ≤ %d and ≤ %d B", objects, bytes, maxObjects, maxBytes)
	}
}
