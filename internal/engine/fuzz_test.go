package engine

import (
	"math/rand"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/sequencer"
	"hermes/internal/tx"
	"hermes/internal/workload"
)

// tpccPolicy builds a policy factory over the TPC-C by-warehouse layout.
func tpccPolicy(name string, base partition.Partitioner) PolicyFactory {
	switch name {
	case "calvin":
		return func(a []tx.NodeID) router.Policy { return router.NewCalvin(base, a) }
	case "gstore":
		return func(a []tx.NodeID) router.Policy { return router.NewGStore(base, a) }
	case "leap":
		return func(a []tx.NodeID) router.Policy { return router.NewLEAP(base, a) }
	case "tpart":
		return func(a []tx.NodeID) router.Policy { return router.NewTPart(base, a, 0.5) }
	default:
		return func(a []tx.NodeID) router.Policy { return core.New(base, a, core.DefaultConfig(2048)) }
	}
}

func c8seq() sequencer.Config {
	return sequencer.Config{BatchSize: 8, Interval: 2 * time.Millisecond}
}

// TestRandomizedSerializability is a quick-check-style integration fuzz:
// random multi-key increment transactions (random sizes, skewed keys,
// occasional logic aborts) run concurrently under every policy; the final
// counter sum must equal the number of successful increments, the record
// count must be conserved, and committed+aborted must cover every
// submission.
func TestRandomizedSerializability(t *testing.T) {
	for name, pf := range policies(3) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			c := newTestCluster(t, 3, pf)
			loadCounters(c, testRows)

			const txns = 150
			expectAborts := 0
			expectIncrements := 0
			for i := 0; i < txns; i++ {
				nKeys := 1 + rng.Intn(5)
				keySet := map[tx.Key]bool{}
				for k := 0; k < nKeys; k++ {
					// Skew toward a hot band to force conflicts.
					var row int
					if rng.Intn(2) == 0 {
						row = rng.Intn(8)
					} else {
						row = rng.Intn(testRows)
					}
					keySet[tx.MakeKey(0, uint64(row))] = true
				}
				var keys []tx.Key
				for k := range keySet {
					keys = append(keys, k)
				}
				keys = tx.NormalizeKeys(keys)
				abort := rng.Intn(10) == 0
				if abort {
					expectAborts++
				} else {
					expectIncrements += len(keys)
				}
				proc := &tx.CounterProc{Reads: keys, Writes: keys, Payload: 8, Abort: abort}
				if _, err := c.Submit(tx.NodeID(rng.Intn(3)), proc); err != nil {
					t.Fatal(err)
				}
			}
			mustDrain(t, c, 30*time.Second)
			col := c.Collector()
			if got := col.Committed() + col.Aborted(); got != txns {
				t.Fatalf("committed+aborted = %d, want %d", got, txns)
			}
			if col.Aborted() != int64(expectAborts) {
				t.Fatalf("aborted = %d, want %d", col.Aborted(), expectAborts)
			}
			var sum uint64
			for i := 0; i < testRows; i++ {
				if v, ok := c.ReadRecord(tx.MakeKey(0, uint64(i))); ok {
					sum += counterVal(v)
				}
			}
			if sum != uint64(expectIncrements) {
				t.Fatalf("counter sum = %d, want %d", sum, expectIncrements)
			}
			if c.TotalRecords() != testRows {
				t.Fatalf("records = %d, want %d", c.TotalRecords(), testRows)
			}
		})
	}
}

// fuzzPolicies is the deterministic order FuzzDeterministicReplay uses to
// map its policy selector to a factory (maps would randomize it).
var fuzzPolicies = []string{"hermes", "calvin", "gstore", "leap", "tpart"}

// FuzzDeterministicReplay feeds randomized workloads (seeded key sets and
// transaction shapes) through two independent clusters with pinned batch
// composition and requires byte-identical state fingerprints. Any
// interleaving-dependent behaviour the engine picks up — map iteration in
// a hot path, a racy counter folded into state, timing-dependent batch
// boundaries — shows up as a fingerprint mismatch on some input.
//
// Batch composition is pinned the same way internal/chaos does it (which
// this package cannot import without a cycle): every transaction enters
// through node 0's front-end so one FIFO link fixes arrival order, and the
// sequencer's interval flush is disabled so batches seal only on the size
// trigger.
//
// A non-zero faultSel turns the second run into a leader-failover replay:
// the cluster gets sequencer standbys and the reliable layer, and the
// total-order leader is killed and restarted mid-stream. The failover run
// must still fingerprint identically to the undisturbed one — the fuzzer
// hunts for workload shapes where promotion, redirect, or dedup lose or
// duplicate a transaction.
func FuzzDeterministicReplay(f *testing.F) {
	f.Add(int64(1), int64(0), int64(0))
	f.Add(int64(2), int64(1), int64(0))
	f.Add(int64(42), int64(4), int64(0))
	// Negative seeds confine every key to node 0's half of the key space,
	// so step 1 routes the whole batch to one node and step 3 must relax
	// δ to rebalance — the path the early-exit optimization rewrote.
	f.Add(int64(-42), int64(0), int64(0))
	// Leader-failover seed: the same replay property with a mid-stream
	// leader kill in the second run.
	f.Add(int64(23), int64(0), int64(1))
	f.Fuzz(func(t *testing.T, seed, polSel, faultSel int64) {
		pol := fuzzPolicies[int(uint64(polSel)%uint64(len(fuzzPolicies)))]
		failover := faultSel != 0
		const (
			nodes = 2
			rows  = 24
			txns  = 16
			batch = 4
		)
		// Generate the trace once so both runs replay the identical input.
		rng := rand.New(rand.NewSource(seed))
		type shape struct {
			keys  []tx.Key
			abort bool
		}
		keySpan := rows
		if seed < 0 {
			keySpan = rows / 2 // skew: all keys homed on node 0 (rebalance stress)
		}
		shapes := make([]shape, txns)
		for i := range shapes {
			nKeys := 1 + rng.Intn(3)
			set := map[tx.Key]bool{}
			for k := 0; k < nKeys; k++ {
				set[tx.MakeKey(0, uint64(rng.Intn(keySpan)))] = true
			}
			var keys []tx.Key
			for k := range set {
				keys = append(keys, k)
			}
			shapes[i] = shape{keys: tx.NormalizeKeys(keys), abort: rng.Intn(8) == 0}
		}

		run := func(kill bool) uint64 {
			base := partition.NewUniformRange(0, rows, nodes)
			cfg := Config{
				Nodes:  []tx.NodeID{0, 1},
				Policy: tpccPolicy(pol, base),
				Seq:    sequencer.Config{BatchSize: batch},
			}
			if failover {
				// Both runs get the fault-tolerant group so the only
				// difference between them is the kill itself.
				cfg.Seq.Standbys = 2
				cfg.Reliable = true
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			loadCounters(c, rows)
			var cpSeq uint64
			if kill {
				cp, err := c.Checkpoint(10 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				cpSeq = cp.Seq
			}
			dones := make([]<-chan struct{}, 0, txns)
			for i, s := range shapes {
				proc := &tx.CounterProc{Reads: s.keys, Writes: s.keys, Payload: 8, Abort: s.abort}
				done, err := c.Submit(0, proc)
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				dones = append(dones, done)
			}
			deadline := time.After(30 * time.Second)
			if kill {
				for c.Node(0).Scheduled() < cpSeq+1 {
					select {
					case <-deadline:
						t.Fatal("node 0 never reached the kill trigger")
					default:
						time.Sleep(200 * time.Microsecond)
					}
				}
				if err := c.CrashLeader(); err != nil {
					t.Fatal(err)
				}
				time.Sleep(5 * time.Millisecond)
				if err := c.RestartLeader(); err != nil {
					t.Fatal(err)
				}
			}
			for i, done := range dones {
				select {
				case <-done:
				case <-deadline:
					t.Fatalf("txn %d/%d did not complete", i, txns)
				}
			}
			mustDrain(t, c, 10*time.Second)
			return c.Fingerprint()
		}
		if a, b := run(false), run(failover); a != b {
			t.Fatalf("seed=%d policy=%s failover=%v: replay fingerprints differ: %x vs %x",
				seed, pol, failover, a, b)
		}
	})
}

// TestTPCCIntegrity runs the TPC-C generator through the full engine
// under every policy and checks the workload's invariants: submissions
// are fully accounted (committed + aborted), inserts only grow the record
// count, and the database never loses the records it was loaded with.
func TestTPCCIntegrity(t *testing.T) {
	cfg := workload.DefaultTPCCConfig(2, 2)
	cfg.StockPerWarehouse = 50
	cfg.Seed = 3
	for name := range policies(2) {
		t.Run(name, func(t *testing.T) {
			gen := workload.NewTPCC(cfg)
			// The TPC-C partitioner (by warehouse) replaces the uniform
			// range the shared policies() helper uses; rebuild the
			// factory over it.
			base := gen.Partitioner()
			c, err := New(Config{
				Nodes:  []tx.NodeID{0, 1},
				Policy: tpccPolicy(name, base),
				Seq:    c8seq(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			loaded := 0
			gen.ForEachRecord(func(k tx.Key, v []byte) {
				c.LoadRecord(k, v)
				loaded++
			})
			const txns = 80
			for i := 0; i < txns; i++ {
				proc, via := gen.Next(0)
				if _, err := c.Submit(via, proc); err != nil {
					t.Fatal(err)
				}
			}
			mustDrain(t, c, 30*time.Second)
			col := c.Collector()
			if got := col.Committed() + col.Aborted(); got != txns {
				t.Fatalf("committed+aborted = %d, want %d", got, txns)
			}
			if c.TotalRecords() < loaded {
				t.Fatalf("records shrank: %d < %d loaded", c.TotalRecords(), loaded)
			}
		})
	}
}
