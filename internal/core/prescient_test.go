package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hermes/internal/fusion"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/tx"
)

func reqRW(id tx.TxnID, rs, ws []tx.Key) *tx.Request {
	return tx.NewRequest(id, &tx.CounterProc{Reads: rs, Writes: ws})
}

func activeNodes(n int) []tx.NodeID {
	out := make([]tx.NodeID, n)
	for i := range out {
		out[i] = tx.NodeID(i)
	}
	return out
}

// paperExample builds the §3.2.3 / Fig. 5 scenario: three nodes, tuples
// {A,B} on node 0 and {C,D,E} on node 1, node 2 empty.
func paperExample() (*Prescient, map[string]tx.Key, []*tx.Request) {
	bounds := []tx.Key{tx.MakeKey(0, 0), tx.MakeKey(0, 10), tx.MakeKey(0, 100), tx.MakeKey(0, 200)}
	base, err := partition.NewRangeBoundaries(bounds)
	if err != nil {
		panic(err)
	}
	p := New(base, activeNodes(3), DefaultConfig(0))
	keys := map[string]tx.Key{
		"A": tx.MakeKey(0, 0), "B": tx.MakeKey(0, 1),
		"C": tx.MakeKey(0, 10), "D": tx.MakeKey(0, 11), "E": tx.MakeKey(0, 12),
	}
	k := func(s string) tx.Key { return keys[s] }
	txns := []*tx.Request{
		reqRW(1, []tx.Key{k("A"), k("B"), k("C")}, []tx.Key{k("C")}),
		reqRW(2, []tx.Key{k("C"), k("D"), k("E")}, []tx.Key{k("C")}),
		reqRW(3, []tx.Key{k("A"), k("B"), k("C")}, []tx.Key{k("C")}),
		reqRW(4, []tx.Key{k("D")}, []tx.Key{k("D")}),
		reqRW(5, []tx.Key{k("C")}, []tx.Key{k("C")}),
		reqRW(6, []tx.Key{k("C")}, []tx.Key{k("C")}),
	}
	return p, keys, txns
}

func TestPaperExampleBalancedAndCheap(t *testing.T) {
	p, _, txns := paperExample()
	routes := p.RouteUser(txns)
	if len(routes) != 6 {
		t.Fatalf("routes = %d", len(routes))
	}
	// α = 0 ⇒ θ = 2: every node gets exactly 2 transactions.
	loads := map[tx.NodeID]int{}
	for _, rt := range routes {
		loads[rt.Master]++
	}
	for n, l := range loads {
		if l > 2 {
			t.Errorf("node %d load = %d > θ=2", n, l)
		}
	}
	// The whole batch needs few cross-node record movements: the paper's
	// final plan (Fig. 5d) uses 2 network transmissions. Allow a little
	// slack for tie-breaking differences but reject ping-pong plans.
	moves := 0
	for _, rt := range routes {
		moves += len(rt.Migrations)
		for _, k := range rt.Txn.ReadSet() {
			if !tx.ContainsKey(rt.Txn.WriteSet(), k) && rt.Owners.Get(k) != rt.Master {
				moves++
			}
		}
	}
	if moves > 4 {
		t.Errorf("batch needed %d cross-node movements; expected ≤ 4 (paper achieves 2)", moves)
	}
}

func TestPaperExampleGroupsTemporalLocality(t *testing.T) {
	p, keys, txns := paperExample()
	routes := p.RouteUser(txns)
	// T5 and T6 access exactly {C}: the prescient router must put them on
	// the same node so C migrates at most once for the pair.
	var m5, m6 tx.NodeID = -9, -9
	cMoves := 0
	for _, rt := range routes {
		switch rt.Txn.ID {
		case 5:
			m5 = rt.Master
		case 6:
			m6 = rt.Master
		}
		for _, mg := range rt.Migrations {
			if mg.Key == keys["C"] {
				cMoves++
			}
		}
	}
	if m5 != m6 {
		t.Errorf("T5 on %d, T6 on %d; expected same master", m5, m6)
	}
	if cMoves > 2 {
		t.Errorf("tuple C migrated %d times; ping-pong not avoided", cMoves)
	}
}

func TestPingPongAvoidance(t *testing.T) {
	// Fig. 3: four identical transactions on {A,B}, two nodes, records on
	// node 0, θ = 2. Schedule 2 (2 record moves) must be found, not
	// schedule 1 (6 moves).
	base := partition.NewUniformRange(0, 100, 2)
	p := New(base, activeNodes(2), DefaultConfig(0))
	a, b := tx.MakeKey(0, 1), tx.MakeKey(0, 2)
	var txns []*tx.Request
	for i := 1; i <= 4; i++ {
		txns = append(txns, reqRW(tx.TxnID(i), []tx.Key{a, b}, []tx.Key{a, b}))
	}
	routes := p.RouteUser(txns)
	loads := map[tx.NodeID]int{}
	migs := 0
	for _, rt := range routes {
		loads[rt.Master]++
		migs += len(rt.Migrations)
	}
	if loads[0] != 2 || loads[1] != 2 {
		t.Fatalf("loads = %v, want 2/2", loads)
	}
	if migs != 2 {
		t.Fatalf("total record migrations = %d, want 2 (A and B move once)", migs)
	}
}

func TestLoadConstraintProperty(t *testing.T) {
	f := func(seed int64, bRaw, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		b := int(bRaw%30) + 1
		rng := rand.New(rand.NewSource(seed))
		base := partition.NewUniformRange(0, 1000, n)
		p := New(base, activeNodes(n), DefaultConfig(0))
		var txns []*tx.Request
		for i := 0; i < b; i++ {
			var rs, ws []tx.Key
			for j := 0; j < 1+rng.Intn(4); j++ {
				k := tx.MakeKey(0, uint64(rng.Intn(1000)))
				rs = append(rs, k)
				if rng.Intn(2) == 0 {
					ws = append(ws, k)
				}
			}
			txns = append(txns, reqRW(tx.TxnID(i+1), rs, ws))
		}
		routes := p.RouteUser(txns)
		if len(routes) != b {
			return false
		}
		theta := int(math.Ceil(float64(b) / float64(n)))
		loads := map[tx.NodeID]int{}
		seen := map[tx.TxnID]bool{}
		for _, rt := range routes {
			if seen[rt.Txn.ID] {
				return false // duplicate
			}
			seen[rt.Txn.ID] = true
			loads[rt.Master]++
		}
		for _, l := range loads {
			if l > theta {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOutputIsPermutationOfInput(t *testing.T) {
	p, _, txns := paperExample()
	routes := p.RouteUser(txns)
	seen := map[tx.TxnID]bool{}
	for _, rt := range routes {
		seen[rt.Txn.ID] = true
	}
	for _, r := range txns {
		if !seen[r.ID] {
			t.Fatalf("transaction %d missing from plan", r.ID)
		}
	}
}

func TestReplicaDeterminism(t *testing.T) {
	// Two independent replicas fed the same batches must produce
	// identical plans and identical fusion tables.
	mk := func() *Prescient {
		base := partition.NewUniformRange(0, 500, 4)
		cfg := Config{Alpha: 0, FusionCapacity: 50, FusionPolicy: fusion.LRU}
		return New(base, activeNodes(4), cfg)
	}
	genBatch := func(rng *rand.Rand, start tx.TxnID, n int) []*tx.Request {
		var out []*tx.Request
		for i := 0; i < n; i++ {
			var rs, ws []tx.Key
			for j := 0; j < 1+rng.Intn(5); j++ {
				k := tx.MakeKey(0, uint64(rng.Intn(500)))
				rs = append(rs, k)
				if rng.Intn(2) == 0 {
					ws = append(ws, k)
				}
			}
			out = append(out, reqRW(start+tx.TxnID(i), rs, ws))
		}
		return out
	}
	a, b := mk(), mk()
	rngA := rand.New(rand.NewSource(99))
	rngB := rand.New(rand.NewSource(99))
	var id tx.TxnID = 1
	for batch := 0; batch < 20; batch++ {
		ta := genBatch(rngA, id, 30)
		tb := genBatch(rngB, id, 30)
		id += 30
		ra := a.RouteUser(ta)
		rb := b.RouteUser(tb)
		for i := range ra {
			if ra[i].Txn.ID != rb[i].Txn.ID || ra[i].Master != rb[i].Master {
				t.Fatalf("batch %d position %d: replicas diverged (%d@%d vs %d@%d)",
					batch, i, ra[i].Txn.ID, ra[i].Master, rb[i].Txn.ID, rb[i].Master)
			}
			if len(ra[i].Migrations) != len(rb[i].Migrations) {
				t.Fatalf("batch %d position %d: migration plans diverged", batch, i)
			}
		}
		if a.pl.Fusion.Fingerprint() != b.pl.Fusion.Fingerprint() {
			t.Fatalf("batch %d: fusion tables diverged", batch)
		}
	}
}

func TestFusionCapacityTriggersEvictionMigrations(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	cfg := Config{Alpha: 4, FusionCapacity: 2, FusionPolicy: fusion.FIFO}
	p := New(base, activeNodes(2), cfg)
	// Move keys 60,61,62 (home node 1) onto node 0 one batch at a time:
	// the third insert must evict the first and schedule its migration
	// home.
	local := []tx.Key{tx.MakeKey(0, 1), tx.MakeKey(0, 2)}
	for i := 0; i < 3; i++ {
		k := tx.MakeKey(0, uint64(60+i))
		routes := p.RouteUser([]*tx.Request{
			reqRW(tx.TxnID(i+1), append(append([]tx.Key{}, local...), k), []tx.Key{k}),
		})
		rt := routes[0]
		if rt.Master != 0 {
			t.Fatalf("txn %d master = %d, want 0", i+1, rt.Master)
		}
		if i < 2 && len(rt.Migrations) != 1 {
			t.Fatalf("txn %d migrations = %v", i+1, rt.Migrations)
		}
		if i == 2 {
			// Inbound migration of key 62 plus eviction of key 60 home.
			if len(rt.Migrations) != 2 {
				t.Fatalf("eviction migration missing: %v", rt.Migrations)
			}
			ev := rt.Migrations[1]
			if ev.Key != tx.MakeKey(0, 60) || ev.From != 0 || ev.To != 1 {
				t.Fatalf("eviction = %+v, want key60 0->1", ev)
			}
		}
	}
	if p.pl.Fusion.Len() > 2 {
		t.Fatalf("fusion table exceeded capacity: %d", p.pl.Fusion.Len())
	}
}

func TestSelfEvictionStillMigratesHome(t *testing.T) {
	// Fusion capacity (2) smaller than the transaction's write footprint
	// (3): the transaction's own first write gets evicted by its third.
	// The route must still deliver the evicted record to its cold home;
	// otherwise placement (now falling back to home) points at nothing.
	base := partition.NewUniformRange(0, 100, 2)
	p := New(base, activeNodes(2), Config{Alpha: 8, FusionCapacity: 2, FusionPolicy: fusion.FIFO})
	// Three writes homed on node 1 plus local majority on node 0.
	w := []tx.Key{tx.MakeKey(0, 60), tx.MakeKey(0, 61), tx.MakeKey(0, 62)}
	reads := append([]tx.Key{tx.MakeKey(0, 1), tx.MakeKey(0, 2), tx.MakeKey(0, 3), tx.MakeKey(0, 4)}, w...)
	routes := p.RouteUser([]*tx.Request{reqRW(1, reads, w)})
	rt := routes[0]
	if rt.Master != 0 {
		t.Fatalf("master = %d, want 0", rt.Master)
	}
	// Placement must agree with the migration plan: for every written
	// key, either fusion tracks it at the master, or a migration carries
	// it to wherever placement will look for it.
	finalDest := map[tx.Key]tx.NodeID{}
	for _, m := range rt.Migrations {
		finalDest[m.Key] = m.To // last migration per key wins
	}
	for _, k := range w {
		owner := p.pl.Owner(k)
		dest, migrated := finalDest[k]
		if !migrated {
			t.Fatalf("written key %v has no migration", k)
		}
		if owner != dest {
			t.Fatalf("key %v: placement says %d but record lands at %d (stranded)", k, owner, dest)
		}
	}
}

func TestKeysReturningHomeLeaveFusionTable(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	p := New(base, activeNodes(2), Config{Alpha: 4, FusionCapacity: 10, FusionPolicy: fusion.LRU})
	k := tx.MakeKey(0, 60) // home node 1
	// Pull k to node 0.
	p.RouteUser([]*tx.Request{reqRW(1, []tx.Key{tx.MakeKey(0, 1), tx.MakeKey(0, 2), k}, []tx.Key{k})})
	if _, hot := p.pl.Fusion.Get(k); !hot {
		t.Fatal("migrated key not tracked")
	}
	// Pull it back home with a node-1-majority transaction.
	p.RouteUser([]*tx.Request{reqRW(2, []tx.Key{tx.MakeKey(0, 61), tx.MakeKey(0, 62), k}, []tx.Key{k})})
	if _, hot := p.pl.Fusion.Get(k); hot {
		t.Fatal("key at home still occupies fusion capacity")
	}
}

func TestProvisioningSpreadsLoadToNewNode(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	p := New(base, activeNodes(2), DefaultConfig(0))
	// Scale out via the control path.
	batch := &tx.Batch{Txns: []*tx.Request{
		tx.NewRequest(1, &tx.ProvisionProc{Add: []tx.NodeID{2}}),
	}}
	router.BuildPlan(p, batch)
	if len(p.pl.Active()) != 3 {
		t.Fatalf("Active = %v", p.pl.Active())
	}
	// Nine single-key transactions, θ = 3: the new node must take load.
	var txns []*tx.Request
	for i := 0; i < 9; i++ {
		k := tx.MakeKey(0, uint64(i))
		txns = append(txns, reqRW(tx.TxnID(i+2), []tx.Key{k}, []tx.Key{k}))
	}
	loads := map[tx.NodeID]int{}
	for _, rt := range p.RouteUser(txns) {
		loads[rt.Master]++
	}
	if loads[2] == 0 {
		t.Fatal("new node received no transactions")
	}
	for n, l := range loads {
		if l > 3 {
			t.Fatalf("node %d load %d > θ=3", n, l)
		}
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	p := New(base, activeNodes(2), DefaultConfig(0))
	if routes := p.RouteUser(nil); routes != nil {
		t.Fatal("empty segment produced routes")
	}
	// A transaction with empty read- and write-sets must still route.
	routes := p.RouteUser([]*tx.Request{tx.NewRequest(1, &tx.CounterProc{})})
	if len(routes) != 1 || routes[0].Master == tx.NoNode {
		t.Fatalf("degenerate txn route = %+v", routes)
	}
}

func TestReadOnlyKeysDoNotMigrate(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	p := New(base, activeNodes(2), DefaultConfig(0))
	kRemote := tx.MakeKey(0, 60)
	kLocal := tx.MakeKey(0, 1)
	routes := p.RouteUser([]*tx.Request{
		reqRW(1, []tx.Key{kLocal, kRemote}, []tx.Key{kLocal}),
	})
	rt := routes[0]
	for _, m := range rt.Migrations {
		if m.Key == kRemote {
			t.Fatal("read-only key migrated; §3.2 migrates the write-set only")
		}
	}
}

// routingBatches pre-generates a pool of batches (bsize transactions of
// 2 keys, 1 written — the paper's YCSB default) so benchmarks time the
// router alone, not request construction.
func routingBatches(rng *rand.Rand, rows uint64, bsize, pool int) [][]*tx.Request {
	out := make([][]*tx.Request, pool)
	id := tx.TxnID(1)
	for p := range out {
		batch := make([]*tx.Request, 0, bsize)
		for i := 0; i < bsize; i++ {
			var rs, ws []tx.Key
			for j := 0; j < 2; j++ {
				k := tx.MakeKey(0, uint64(rng.Intn(int(rows))))
				rs = append(rs, k)
				if j == 0 {
					ws = append(ws, k)
				}
			}
			batch = append(batch, reqRW(id, rs, ws))
			id++
		}
		out[p] = batch
	}
	return out
}

func BenchmarkPrescientRouting(b *testing.B) {
	// n = 20, b = 1000 is the §3.2.4 setting; the smaller variants track
	// the cost curve.
	for _, n := range []int{4, 20} {
		for _, bsize := range []int{100, 1000} {
			b.Run(fmt.Sprintf("n=%d/b=%d", n, bsize), func(b *testing.B) {
				const rows = 1_000_000
				base := partition.NewUniformRange(0, rows, n)
				p := New(base, activeNodes(n), DefaultConfig(100_000))
				batches := routingBatches(rand.New(rand.NewSource(1)), rows, bsize, 16)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.RouteUser(batches[i%len(batches)])
				}
			})
		}
	}
}

func BenchmarkCommitRoute(b *testing.B) {
	const rows = 1_000_000
	base := partition.NewUniformRange(0, rows, 20)
	p := New(base, activeNodes(20), DefaultConfig(100_000))
	batches := routingBatches(rand.New(rand.NewSource(1)), rows, 1000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		ar := newRouteArena(batch)
		for _, r := range batch {
			p.commitRoute(r, p.pl.Active()[i%20], ar)
		}
	}
}
