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
// fusion insert), 18.7 objects and 3,920 B after. Under the race detector
// the test only logs its reading: the race runtime's own allocations
// (about 20 objects and 4,150 B per txn on the same box) are not the
// engine's, and the reuse gate runs it without -race, bounds applied.
func TestSteadyStateAllocsPerTxn(t *testing.T) {
	const (
		warm = 20_000
		runs = 40_000

		maxObjects = 40
		maxBytes   = 4096
	)
	c, drive := steadyState(t, false, 0)
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
	if raceEnabled {
		t.Log("race detector on: bounds not applied")
		return
	}
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("%.1f objects and %.0f B per committed txn, want ≤ %d and ≤ %d B", objects, bytes, maxObjects, maxBytes)
	}
}

// TestSteadyStateRetainsNoInput pins that a cluster without a checkpoint
// keeps no input it has consumed: nothing could replay it, since every
// replay starts at a checkpoint. On TestSteadyStateAllocsPerTxn's shape,
// with and without the reliable layer, and each again with one sequencer
// standby, the live heap after a GC may grow by at most 32 B per
// committed transaction over 40k transactions past a 20k warm-up.
//
// Measured on a 2-vCPU x86-64 box: ≈ 304 B (plain) and ≈ 857 B (reliable)
// per transaction while every node kept a command log of every batch, the
// reliable layer every delivered frame and the commit dedup set every
// transaction id; 10–12 B in both modes after. With a standby, ≈ 305 B
// (plain) and ≈ 304 B (reliable) while each replica of the sequencer group
// kept every sealed batch until the first checkpoint.
func TestSteadyStateRetainsNoInput(t *testing.T) {
	const (
		warm = 20_000
		runs = 40_000

		maxGrowth = 32
	)
	for _, tc := range []struct {
		name     string
		reliable bool
		standbys int
	}{
		{"plain", false, 0},
		{"reliable", true, 0},
		{"plain-standby", false, 1},
		{"reliable-standby", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, drive := steadyState(t, tc.reliable, tc.standbys)
			drive(warm)
			committed0 := c.Collector().Committed()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			drive(runs)
			runtime.GC()
			runtime.ReadMemStats(&after)
			committed := c.Collector().Committed() - committed0
			if committed < runs {
				t.Fatalf("committed %d of %d transactions", committed, runs)
			}
			growth := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(committed)
			t.Logf("live heap %.1f -> %.1f MB: %.0f B per committed txn",
				float64(before.HeapAlloc)/1e6, float64(after.HeapAlloc)/1e6, growth)
			if growth > maxGrowth {
				t.Errorf("live heap grew %.0f B per committed txn, want ≤ %d", growth, maxGrowth)
			}
		})
	}
}

// steadyState builds the inproc-ycsb-shaped cluster both tests above run:
// an in-process Hermes cluster of 3 nodes, 200k rows of 64 B, a fusion
// table of rows/40, and a driver submitting scrambled YCSB θ = 0.8
// transactions over 3 keys in batches of 25 with 50 in flight. drive(n)
// submits n transactions and returns once all of them have completed.
func steadyState(t *testing.T, reliable bool, standbys int) (*Cluster, func(n int)) {
	t.Helper()
	const (
		nodes  = 3
		rows   = 200_000
		theta  = 0.8
		keys   = 3
		batch  = 25
		window = 50
	)
	ids := []tx.NodeID{0, 1, 2}
	base := partition.NewUniformRange(0, rows, nodes)
	c, err := New(Config{
		Nodes: ids,
		Policy: func(a []tx.NodeID) router.Policy {
			return core.New(base, a, core.DefaultConfig(rows/40))
		},
		Seq:      sequencer.Config{BatchSize: batch, Interval: time.Hour, Standbys: standbys},
		Reliable: reliable,
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
	return c, drive
}
