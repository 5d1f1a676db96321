package engine

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/sequencer"
	"hermes/internal/tx"
)

const testRows = 200

// policies returns a named factory for every routing policy over a
// uniform range layout.
func policies(nodes int) map[string]PolicyFactory {
	base := partition.NewUniformRange(0, testRows, nodes)
	return map[string]PolicyFactory{
		"calvin": func(a []tx.NodeID) router.Policy { return router.NewCalvin(base, a) },
		"gstore": func(a []tx.NodeID) router.Policy { return router.NewGStore(base, a) },
		"leap":   func(a []tx.NodeID) router.Policy { return router.NewLEAP(base, a) },
		"tpart":  func(a []tx.NodeID) router.Policy { return router.NewTPart(base, a, 0.5) },
		"hermes": func(a []tx.NodeID) router.Policy {
			return core.New(base, a, core.DefaultConfig(testRows/4))
		},
	}
}

func newTestCluster(t *testing.T, nodes int, pf PolicyFactory) *Cluster {
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

// mustDrain fails the test with DrainDetail's diagnosis of what the quiesce
// is stuck behind if c does not drain within timeout.
func mustDrain(t testing.TB, c *Cluster, timeout time.Duration) {
	t.Helper()
	if err := c.DrainDetail(timeout); err != nil {
		t.Fatal(err)
	}
}

func loadCounters(c *Cluster, rows int) {
	for i := 0; i < rows; i++ {
		v := make([]byte, 8)
		c.LoadRecord(tx.MakeKey(0, uint64(i)), v)
	}
}

func counterVal(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// incProc returns a read-modify-write increment over keys.
func incProc(keys ...tx.Key) tx.Procedure {
	return &tx.CounterProc{Reads: keys, Writes: keys, Payload: 8}
}

func TestSingleTxnAllPolicies(t *testing.T) {
	for name, pf := range policies(3) {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, 3, pf)
			loadCounters(c, testRows)
			// Cross-partition increment: keys on different nodes.
			k1 := tx.MakeKey(0, 1)
			k2 := tx.MakeKey(0, 150)
			if err := c.SubmitAndWait(0, incProc(k1, k2)); err != nil {
				t.Fatal(err)
			}
			mustDrain(t, c, 5*time.Second)
			for _, k := range []tx.Key{k1, k2} {
				v, ok := c.ReadRecord(k)
				if !ok || counterVal(v) != 1 {
					t.Fatalf("key %v = %v,%v, want counter 1", k, v, ok)
				}
			}
			if got := c.Collector().Committed(); got != 1 {
				t.Fatalf("Committed = %d", got)
			}
		})
	}
}

// TestSerializableCounters is the core serializability check: concurrent
// conflicting increments across partitions must all be applied exactly
// once, under every policy.
func TestSerializableCounters(t *testing.T) {
	const txns = 120
	for name, pf := range policies(4) {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, 4, pf)
			loadCounters(c, testRows)
			var waits []<-chan struct{}
			for i := 0; i < txns; i++ {
				// All transactions hit an overlapping hot pair plus a
				// rotating key, forcing both conflicts and distribution.
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
			// Sum of all counters must equal total increments (2 per txn).
			var sum uint64
			for i := 0; i < testRows; i++ {
				if v, ok := c.ReadRecord(tx.MakeKey(0, uint64(i))); ok {
					sum += counterVal(v)
				}
			}
			if sum != 2*txns {
				t.Fatalf("counter sum = %d, want %d (lost or duplicated updates)", sum, 2*txns)
			}
			if c.TotalRecords() != testRows {
				t.Fatalf("records = %d, want %d (migration lost/duplicated records)", c.TotalRecords(), testRows)
			}
		})
	}
}

// TestDeterministicAcrossRuns: identical input streams must produce
// byte-identical final states (storage + fusion tables), run after run.
func TestDeterministicAcrossRuns(t *testing.T) {
	for _, name := range []string{"hermes", "leap", "tpart"} {
		t.Run(name, func(t *testing.T) {
			run := func() uint64 {
				pf := policies(3)[name]
				c := newTestCluster(t, 3, pf)
				loadCounters(c, testRows)
				for i := 0; i < 60; i++ {
					k1 := tx.MakeKey(0, uint64(i*7%testRows))
					k2 := tx.MakeKey(0, uint64(i*13%testRows))
					if _, err := c.Submit(tx.NodeID(i%3), incProc(k1, k2)); err != nil {
						t.Fatal(err)
					}
					// Submit in strict sequence so the total order is
					// identical between runs.
					mustDrain(t, c, 10*time.Second)
				}
				return c.Fingerprint()
			}
			if a, b := run(), run(); a != b {
				t.Fatalf("two identical runs produced different final states: %x vs %x", a, b)
			}
		})
	}
}

// TestFusionReplicasAgree: after a concurrent workload, every node's
// fusion-table replica must be identical.
func TestFusionReplicasAgree(t *testing.T) {
	pf := policies(4)["hermes"]
	c := newTestCluster(t, 4, pf)
	loadCounters(c, testRows)
	for i := 0; i < 200; i++ {
		k1 := tx.MakeKey(0, uint64(i%testRows))
		k2 := tx.MakeKey(0, uint64((i*31)%testRows))
		if _, err := c.Submit(tx.NodeID(i%4), incProc(k1, k2)); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, c, 20*time.Second)
	var want uint64
	for i, id := range c.order {
		f := c.nodes[id].policy.Placement().Fusion
		if f == nil {
			t.Fatal("hermes replica missing fusion table")
		}
		if i == 0 {
			want = f.Fingerprint()
		} else if f.Fingerprint() != want {
			t.Fatalf("node %d fusion table diverged", id)
		}
	}
}

// TestMatchesSerialExecution replays the committed schedule serially on a
// single map and compares final values — the "all committed effects
// serialize in total order" check.
func TestMatchesSerialExecution(t *testing.T) {
	for name, pf := range policies(3) {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, 3, pf)
			loadCounters(c, testRows)
			type op struct{ k1, k2 tx.Key }
			var ops []op
			for i := 0; i < 80; i++ {
				o := op{tx.MakeKey(0, uint64(i*3%testRows)), tx.MakeKey(0, uint64(i*11%testRows))}
				ops = append(ops, o)
				if _, err := c.Submit(tx.NodeID(i%3), incProc(o.k1, o.k2)); err != nil {
					t.Fatal(err)
				}
			}
			mustDrain(t, c, 20*time.Second)
			// Serial replay: increments commute here, so order-independent
			// expected values suffice.
			expect := map[tx.Key]uint64{}
			for _, o := range ops {
				if o.k1 == o.k2 {
					expect[o.k1]++
					continue
				}
				expect[o.k1]++
				expect[o.k2]++
			}
			for k, want := range expect {
				v, ok := c.ReadRecord(k)
				if !ok || counterVal(v) != want {
					t.Fatalf("key %v = %d, want %d", k, counterVal(v), want)
				}
			}
		})
	}
}

func TestLogicAbortRollsBackButMigrates(t *testing.T) {
	pf := policies(2)["hermes"]
	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	kLocal := tx.MakeKey(0, 1)    // node 0
	kRemote := tx.MakeKey(0, 150) // node 1
	abortProc := &tx.CounterProc{
		Reads:  []tx.Key{kLocal, kRemote},
		Writes: []tx.Key{kLocal, kRemote},
		Abort:  true,
	}
	if err := c.SubmitAndWait(0, abortProc); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 5*time.Second)
	if c.Collector().Aborted() != 1 {
		t.Fatalf("Aborted = %d, want 1", c.Collector().Aborted())
	}
	// Values rolled back everywhere.
	for _, k := range []tx.Key{kLocal, kRemote} {
		v, ok := c.ReadRecord(k)
		if !ok || counterVal(v) != 0 || len(v) != 8 {
			t.Fatalf("key %v = %q after abort, want original", k, v)
		}
	}
	// But the migration still happened (§4.2): kRemote moved to node 0.
	if owner := c.nodes[0].policy.Placement().Owner(kRemote); owner != 0 {
		t.Fatalf("aborted txn did not migrate: owner = %d, want 0", owner)
	}
	if _, ok := c.nodes[0].store.Read(kRemote); !ok {
		t.Fatal("migrated record absent at new owner after abort")
	}
	if _, ok := c.nodes[1].store.Read(kRemote); ok {
		t.Fatal("migrated record still present at old owner")
	}
	// A follow-up transaction must find consistent state.
	if err := c.SubmitAndWait(0, incProc(kLocal, kRemote)); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 5*time.Second)
	if v, _ := c.ReadRecord(kRemote); counterVal(v) != 1 {
		t.Fatalf("post-abort increment = %d, want 1", counterVal(v))
	}
}

func TestColdMigrationMovesRange(t *testing.T) {
	pf := policies(2)["hermes"]
	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	// Move rows 0-9 (home node 0) to node 1 as one chunk.
	var keys []tx.Key
	for i := 0; i < 10; i++ {
		keys = append(keys, tx.MakeKey(0, uint64(i)))
	}
	if err := c.SubmitAndWait(0, &tx.MigrationProc{Keys: keys, To: 1}); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 5*time.Second)
	for _, k := range keys {
		if _, ok := c.nodes[1].store.Read(k); !ok {
			t.Fatalf("key %v not at destination", k)
		}
		if _, ok := c.nodes[0].store.Read(k); ok {
			t.Fatalf("key %v still at source", k)
		}
		if got := c.nodes[0].policy.Placement().Home(k); got != 1 {
			t.Fatalf("home of %v = %d, want 1", k, got)
		}
	}
	if c.TotalRecords() != testRows {
		t.Fatalf("records = %d, want %d", c.TotalRecords(), testRows)
	}
	// Records remain fully usable at the new home.
	if err := c.SubmitAndWait(0, incProc(keys[0], keys[9])); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 5*time.Second)
	if v, _ := c.ReadRecord(keys[0]); counterVal(v) != 1 {
		t.Fatalf("post-migration increment lost: %d", counterVal(v))
	}
}

func TestScaleOutProvisioning(t *testing.T) {
	// Start with 2 active of 3 nodes; activate the third; hot keys must
	// start landing on it and cold migration must move a range.
	ids := []tx.NodeID{0, 1, 2}
	base := partition.NewUniformRange(0, testRows, 2) // homes only on 0,1
	c, err := New(Config{
		Nodes:  ids,
		Active: []tx.NodeID{0, 1},
		Policy: func(a []tx.NodeID) router.Policy {
			return core.New(base, a, core.DefaultConfig(testRows/4))
		},
		Seq: sequencer.Config{BatchSize: 8, Interval: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	loadCounters(c, testRows)

	done, err := c.Provision([]tx.NodeID{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.seq.Flush()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("provision not acknowledged")
	}

	// Cold-migrate rows 0-19 to the new node.
	var keys []tx.Key
	for i := 0; i < 20; i++ {
		keys = append(keys, tx.MakeKey(0, uint64(i)))
	}
	if err := c.SubmitAndWait(0, &tx.MigrationProc{Keys: keys, To: 2}); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 10*time.Second)
	if got := c.nodes[2].store.Len(); got != 20 {
		t.Fatalf("new node has %d records, want 20", got)
	}
	// Transactions against migrated keys execute fine and may now master
	// on node 2.
	for i := 0; i < 30; i++ {
		if _, err := c.Submit(0, incProc(keys[i%20])); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, c, 10*time.Second)
	var sum uint64
	for _, k := range keys {
		v, _ := c.ReadRecord(k)
		sum += counterVal(v)
	}
	if sum != 30 {
		t.Fatalf("increments after scale-out = %d, want 30", sum)
	}
	if c.TotalRecords() != testRows {
		t.Fatalf("records = %d, want %d", c.TotalRecords(), testRows)
	}
}

func TestConsolidationRemovesNode(t *testing.T) {
	pf := policies(3)["hermes"]
	c := newTestCluster(t, 3, pf)
	loadCounters(c, testRows)
	// Heat up some keys onto node 2 via fusion, then remove node 2.
	hot := []tx.Key{tx.MakeKey(0, 140), tx.MakeKey(0, 141)} // home node 2
	for i := 0; i < 10; i++ {
		if _, err := c.Submit(2, incProc(hot[0], hot[1])); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, c, 10*time.Second)
	done, err := c.Provision(nil, []tx.NodeID{2})
	if err != nil {
		t.Fatal(err)
	}
	c.seq.Flush()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consolidation not acknowledged")
	}
	// Cold-migrate node 2's remaining records to node 0.
	remaining := c.nodes[2].store.Keys()
	if len(remaining) > 0 {
		if err := c.SubmitAndWait(0, &tx.MigrationProc{Keys: remaining, To: 0}); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, c, 10*time.Second)
	if got := c.nodes[2].store.Len(); got != 0 {
		t.Fatalf("removed node still has %d records", got)
	}
	if c.TotalRecords() != testRows {
		t.Fatalf("records = %d, want %d", c.TotalRecords(), testRows)
	}
	// Workload continues on the remaining nodes.
	for i := 0; i < 20; i++ {
		if _, err := c.Submit(tx.NodeID(i%2), incProc(hot[0])); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, c, 10*time.Second)
	v, ok := c.ReadRecord(hot[0])
	if !ok || counterVal(v) != 30 {
		t.Fatalf("hot counter = %d, want 30", counterVal(v))
	}
}

func TestRecoveryFromSequencerLog(t *testing.T) {
	// Run a workload, checkpoint mid-way, keep running, then rebuild a
	// fresh cluster from checkpoint + replay of the sequencer's sealed log
	// and compare fingerprints (§4.3).
	pf := policies(2)["hermes"]

	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	// The sealed log starts at a checkpoint; one before the first batch
	// keeps the whole command stream.
	if _, err := c.Checkpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	submitPhase := func(c *Cluster, lo, hi int) {
		for i := lo; i < hi; i++ {
			k1 := tx.MakeKey(0, uint64(i*3%testRows))
			k2 := tx.MakeKey(0, uint64(i*7%testRows))
			if _, err := c.Submit(tx.NodeID(i%2), incProc(k1, k2)); err != nil {
				t.Fatal(err)
			}
			mustDrain(t, c, 10*time.Second)
		}
	}
	submitPhase(c, 0, 20)

	// Consistent checkpoint: quiesced between batches.
	checkpoints := map[tx.NodeID]map[tx.Key][]byte{}
	for id, n := range c.nodes {
		checkpoints[id] = n.store.Checkpoint()
	}
	cpSeq, _ := c.seq.Next() // first sequence NOT covered by checkpoint

	submitPhase(c, 20, 40)
	want := c.Fingerprint()
	logged := c.TailSince(cpSeq)

	// "Restart": fresh cluster, restore checkpoint, replay the log.
	c2 := newTestCluster(t, 2, pf)
	for id, cp := range checkpoints {
		c2.nodes[id].store.Restore(cp)
	}
	// Rebuild routing state by replaying the *entire* command stream
	// through the policy replicas (placement state is derived state; the
	// checkpoint covers storage, the log covers placement deltas since
	// batch 0 — replay routing only, not execution, for pre-checkpoint
	// batches).
	preCp := c.TailSince(0)[:cpSeq]
	for _, n := range c2.nodes {
		for _, b := range preCp {
			router.BuildPlan(n.policy, b)
		}
	}
	// Replay post-checkpoint batches through the full execution path.
	for _, b := range logged {
		for _, r := range b.Txns {
			r.SubmitTime = time.Now()
		}
		reqs := b.Txns
		for _, r := range reqs {
			if _, err := c2.Submit(0, r.Proc); err != nil {
				t.Fatal(err)
			}
		}
		mustDrain(t, c2, 10*time.Second)
	}
	if got := c2.Fingerprint(); got != want {
		t.Fatalf("recovered state %x != original %x", got, want)
	}
}

func TestNetworkBytesAccounted(t *testing.T) {
	pf := policies(2)["hermes"]
	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	if err := c.SubmitAndWait(0, incProc(tx.MakeKey(0, 1), tx.MakeKey(0, 150))); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 5*time.Second)
	msgs, bytes := c.NetStats().Totals()
	if msgs == 0 || bytes == 0 {
		t.Fatalf("no network accounting: %d msgs %d bytes", msgs, bytes)
	}
}

func TestLatencyBreakdownPopulated(t *testing.T) {
	pf := policies(2)["gstore"]
	c := newTestCluster(t, 2, pf)
	loadCounters(c, testRows)
	for i := 0; i < 20; i++ {
		if _, err := c.Submit(0, incProc(tx.MakeKey(0, 1), tx.MakeKey(0, 150))); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, c, 10*time.Second)
	bd := c.Collector().AvgBreakdown()
	if bd.Total() <= 0 {
		t.Fatalf("empty breakdown: %+v", bd)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Nodes: []tx.NodeID{0}}); err == nil {
		t.Fatal("missing policy accepted")
	}
}

func TestThroughputUnderLoadAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	for name, pf := range policies(4) {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, 4, pf)
			loadCounters(c, testRows)
			const txns = 400
			for i := 0; i < txns; i++ {
				k1 := tx.MakeKey(0, uint64(i%testRows))
				k2 := tx.MakeKey(0, uint64((i*37+11)%testRows))
				if _, err := c.Submit(tx.NodeID(i%4), incProc(k1, k2)); err != nil {
					t.Fatal(err)
				}
			}
			mustDrain(t, c, 30*time.Second)
			if got := c.Collector().Committed(); got != txns {
				t.Fatalf("Committed = %d, want %d", got, txns)
			}
			var sum uint64
			for i := 0; i < testRows; i++ {
				if v, ok := c.ReadRecord(tx.MakeKey(0, uint64(i))); ok {
					sum += counterVal(v)
				}
			}
			if sum != 2*txns {
				t.Fatalf("%s: counter sum = %d, want %d", name, sum, 2*txns)
			}
		})
	}
}

func ExampleCluster() {
	base := partition.NewUniformRange(0, 100, 2)
	c, err := New(Config{
		Nodes: []tx.NodeID{0, 1},
		Policy: func(a []tx.NodeID) router.Policy {
			return core.New(base, a, core.DefaultConfig(25))
		},
		Seq: sequencer.Config{BatchSize: 4, Interval: time.Millisecond},
	})
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	c.LoadRecord(tx.MakeKey(0, 1), []byte("hello"))
	k := tx.MakeKey(0, 1)
	c.SubmitAndWait(0, &tx.FuncProc{
		Reads:  []tx.Key{k},
		Writes: []tx.Key{k},
		Fn:     func(ctx tx.ExecCtx) { ctx.Write(k, []byte("world")) },
	})
	c.Drain(5 * time.Second)
	v, _ := c.ReadRecord(tx.MakeKey(0, 1))
	fmt.Println(string(v))
	// Output: world
}
