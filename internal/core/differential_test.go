package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hermes/internal/fusion"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/tx"
)

// diffBatch draws a random batch whose shape exercises every branch the
// optimized router rewrote: variable access-set size, read/write overlap,
// occasional blind writes, occasional empty access sets, and key skew
// (sometimes all keys from one node's range so step 3 must relax δ).
func diffBatch(rng *rand.Rand, start tx.TxnID, bsize int, rows uint64) []*tx.Request {
	skew := rng.Intn(3) == 0 // every third batch: hammer the low key range
	out := make([]*tx.Request, 0, bsize)
	for i := 0; i < bsize; i++ {
		var rs, ws []tx.Key
		nk := rng.Intn(5) // 0..4 keys; 0 = degenerate empty transaction
		for j := 0; j < nk; j++ {
			span := rows
			if skew {
				span = rows / 4
			}
			k := tx.MakeKey(0, uint64(rng.Intn(int(span))))
			switch rng.Intn(3) {
			case 0: // read-only
				rs = append(rs, k)
			case 1: // read+write
				rs = append(rs, k)
				ws = append(ws, k)
			default: // blind write
				ws = append(ws, k)
			}
		}
		out = append(out, reqRW(start+tx.TxnID(i), rs, ws))
		start++
	}
	return out
}

// requireSameRoutes fails unless a and b are field-for-field identical.
func requireSameRoutes(t *testing.T, batch int, a, b []*router.Route) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("batch %d: route counts differ: %d vs %d", batch, len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.Txn.ID != rb.Txn.ID {
			t.Fatalf("batch %d pos %d: order differs: txn %d vs %d", batch, i, ra.Txn.ID, rb.Txn.ID)
		}
		if ra.Mode != rb.Mode || ra.Master != rb.Master {
			t.Fatalf("batch %d pos %d (txn %d): mode/master differ: %v@%d vs %v@%d",
				batch, i, ra.Txn.ID, ra.Mode, ra.Master, rb.Mode, rb.Master)
		}
		if !slices.Equal(ra.Owners, rb.Owners) {
			t.Fatalf("batch %d pos %d (txn %d): owners differ:\n  %v\n  %v",
				batch, i, ra.Txn.ID, ra.Owners, rb.Owners)
		}
		if !slices.Equal(ra.Migrations, rb.Migrations) {
			t.Fatalf("batch %d pos %d (txn %d): migrations differ:\n  %v\n  %v",
				batch, i, ra.Txn.ID, ra.Migrations, rb.Migrations)
		}
		if !slices.Equal(ra.WriteBack, rb.WriteBack) {
			t.Fatalf("batch %d pos %d (txn %d): write-backs differ:\n  %v\n  %v",
				batch, i, ra.Txn.ID, ra.WriteBack, rb.WriteBack)
		}
	}
}

// TestOptimizedMatchesReference is the equivalence gate for the hot-path
// rewrite: across partitioner families, α settings, and fusion-table
// bounds, the optimized router and the preserved reference implementation
// must emit identical plans on identical batch streams — and their fusion
// tables must evolve in lockstep, so equivalence holds batch after batch,
// not just on the first one.
func TestOptimizedMatchesReference(t *testing.T) {
	const rows = 200
	parts := []struct {
		name string
		mk   func() partition.Partitioner
	}{
		{"uniform-range", func() partition.Partitioner {
			return partition.NewUniformRange(0, rows, 4)
		}},
		{"hash", func() partition.Partitioner {
			return partition.NewHash(4)
		}},
		{"skewed-range", func() partition.Partitioner {
			// Node 0 owns 3/4 of the key space: step 3 works hard.
			b, err := partition.NewRangeBoundaries([]tx.Key{
				tx.MakeKey(0, 0), tx.MakeKey(0, 150), tx.MakeKey(0, 170),
				tx.MakeKey(0, 185), tx.MakeKey(0, rows),
			})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"lookup", func() partition.Partitioner {
			over := map[tx.Key]tx.NodeID{}
			for i := uint64(0); i < 40; i++ {
				over[tx.MakeKey(0, i)] = tx.NodeID(i % 4)
			}
			return partition.NewLookup(over, partition.NewUniformRange(0, rows, 4))
		}},
	}
	for _, pt := range parts {
		for _, alpha := range []float64{0, 0.5} {
			for _, capacity := range []int{0, 8} {
				name := fmt.Sprintf("%s/alpha=%v/cap=%d", pt.name, alpha, capacity)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Alpha: alpha, FusionCapacity: capacity, FusionPolicy: fusion.LRU}
					opt := New(pt.mk(), activeNodes(4), cfg)
					ref := New(pt.mk(), activeNodes(4), cfg)
					rng := rand.New(rand.NewSource(7))
					id := tx.TxnID(1)
					for batch := 0; batch < 12; batch++ {
						bsize := 1 + rng.Intn(24)
						txns := diffBatch(rng, id, bsize, rows)
						id += tx.TxnID(bsize)
						got := opt.RouteUser(txns)
						want := referenceRouteUser(ref, txns)
						requireSameRoutes(t, batch, got, want)
						if of, rf := opt.pl.Fusion.Fingerprint(), ref.pl.Fusion.Fingerprint(); of != rf {
							t.Fatalf("batch %d: fusion tables diverged (%x vs %x)", batch, of, rf)
						}
					}
				})
			}
		}
	}
}

// TestRemoteEdgesAllMatchesReference pins the semantics of the one-pass
// remote-edge computation against the quadratic reference and against
// hand-computed values: keys both read and written travel with the
// transaction (excluded from the remote-read term), and later in-batch
// readers of the write-set each contribute one edge unless already
// mastered at the candidate node.
func TestRemoteEdgesAllMatchesReference(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2) // keys 0-49 on node 0, 50-99 on node 1
	p := New(base, activeNodes(2), DefaultConfig(0))
	k := func(i uint64) tx.Key { return tx.MakeKey(0, i) }

	// T0 reads {10, 60} and writes {10, 70}:
	//   - 10 is read+write: travels with T0, no read edge anywhere;
	//   - 60 is read-only, owned by node 1: one edge at node 0, none at 1;
	//   - 70 is a blind write: no read edge, but T1 and T2 read it later.
	// T1 (master 0) reads {70}; T2 (master 1) reads {70, 10}.
	order := []*tx.Request{
		reqRW(1, []tx.Key{k(10), k(60)}, []tx.Key{k(10), k(70)}),
		reqRW(2, []tx.Key{k(70)}, nil),
		reqRW(3, []tx.Key{k(70), k(10)}, nil),
	}
	masters := []tx.NodeID{0, 0, 1}
	active := p.pl.Active()

	p.setRoute(order, masters)
	p.remoteEdgesAll(0)
	// Node 0: read edge for 60 (owner 1) + later readers of {10,70}:
	//   T2 reads both and is mastered at 1 → 2 edges; T1 is at 0 → 0.
	// Node 1: read edge for 10?—no, 10 travels (read+write). 60 local → 0.
	//   Later readers not at node 1: T1 reads 70 at node 0 → 1; T2 at 1 → 0.
	if got, want := p.sc.edges[0], 1+2; got != want {
		t.Errorf("edges[node0] = %d, want %d", got, want)
	}
	if got, want := p.sc.edges[1], 0+1; got != want {
		t.Errorf("edges[node1] = %d, want %d", got, want)
	}

	// And both must agree with the reference on randomized instances.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		b := 1 + rng.Intn(10)
		txns := diffBatch(rng, 100, b, 100)
		ms := make([]tx.NodeID, b)
		for i := range ms {
			ms[i] = tx.NodeID(rng.Intn(2))
		}
		overlay := map[tx.Key]tx.NodeID{}
		p.setRoute(txns, ms)
		for i := 0; i < b; i++ {
			p.remoteEdgesAll(i)
			for c, node := range active {
				want := refRemoteEdges(p, i, node, txns, ms, overlay)
				if p.sc.edges[c] != want {
					t.Fatalf("trial %d txn %d node %d: edges = %d, reference = %d",
						trial, i, node, p.sc.edges[c], want)
				}
			}
		}
	}
}

// setRoute indexes order as a batch and fixes B′ to that order with the
// given masters, as step 1 would leave it, so step 3's cost model can be
// probed directly.
func (p *Prescient) setRoute(order []*tx.Request, masters []tx.NodeID) {
	active := p.pl.Active()
	p.beginBatch(order, active)
	for t, m := range masters {
		x, ok := slices.BinarySearch(active, m)
		if !ok {
			panic(fmt.Sprintf("master %d is not active", m))
		}
		p.sc.order = append(p.sc.order, int32(t))
		p.sc.masters = append(p.sc.masters, int32(x))
	}
	p.indexReaders()
}

// refPolicy routes user segments with the reference implementation, so
// router.BuildPlan can drive it through provisioning barriers.
type refPolicy struct {
	p   *Prescient
	abl Ablation
}

func (r refPolicy) Placement() *router.Placement { return r.p.pl }

func (r refPolicy) RouteUser(txns []*tx.Request) []*router.Route {
	return refRouteAblated(r.p, txns, r.abl)
}

// TestLongStreamsMatchReference routes long streams of the benchmark's
// two batch shapes through the router and the reference, with and
// without load slack and under the NoReorder and NoRebalance ablations.
// Midway a provisioning barrier adds a node, and later one removes a node
// that owns part of the key space, so keys whose owner is not active enter
// the plans. Every route must match, and so must the fusion tables,
// compared every 50 batches.
func TestLongStreamsMatchReference(t *testing.T) {
	counts := map[string]int{"ycsb": 2000, "hotkey": 300}
	ablations := []struct {
		name string
		abl  Ablation
	}{{"full", Ablation{}}, {"no-reorder", Ablation{NoReorder: true}}, {"no-rebalance", Ablation{NoRebalance: true}}}
	for _, s := range routeShapes {
		batches := s.batches(5, counts[s.name])
		for _, alpha := range []float64{0, 0.2} {
			for _, ab := range ablations {
				t.Run(fmt.Sprintf("%s/alpha=%v/%s", s.name, alpha, ab.name), func(t *testing.T) {
					var got router.Policy = s.router(s.config(alpha))
					if ab.abl != (Ablation{}) {
						got = &AblatedPrescient{p: s.router(s.config(alpha)), abl: ab.abl}
					}
					want := refPolicy{p: s.router(s.config(alpha)), abl: ab.abl}
					added, removed := tx.NodeID(s.nodes), tx.NodeID(1)
					for i, txns := range batches {
						batch := &tx.Batch{Seq: uint64(i + 1), Txns: txns}
						switch i {
						case len(batches) / 3:
							batch.Txns = barrier(txns, &tx.ProvisionProc{Add: []tx.NodeID{added}})
						case 2 * len(batches) / 3:
							batch.Txns = barrier(txns, &tx.ProvisionProc{Remove: []tx.NodeID{removed}})
						}
						requireSameRoutes(t, i, router.BuildPlan(got, batch).Routes, router.BuildPlan(want, batch).Routes)
						if i%50 != 49 && i != len(batches)-1 {
							continue // a fingerprint hashes the whole table
						}
						if g, w := got.Placement().Fusion.Fingerprint(), want.p.pl.Fusion.Fingerprint(); g != w {
							t.Fatalf("batch %d: fusion tables diverged (%x vs %x)", i, g, w)
						}
					}
					if got.Placement().Fusion.Stats().Evictions == 0 {
						t.Fatal("the stream never filled the fusion table, so no eviction was compared")
					}
				})
			}
		}
	}
}

// barrier puts a provisioning transaction in the middle of txns.
func barrier(txns []*tx.Request, proc *tx.ProvisionProc) []*tx.Request {
	mid := len(txns) / 2
	out := append([]*tx.Request{}, txns[:mid]...)
	out = append(out, tx.NewRequest(txns[mid].ID+1_000_000_000, proc))
	return append(out, txns[mid:]...)
}

// TestScratchReuseRoutesLikeFreshScratch routes batches that grow, shrink
// and are empty through one Prescient, and through a twin whose scratch
// is zeroed before every batch; the routes and fusion tables must match.
// Once, a batch is routed with generation stamp 1 and the stamp is then
// set to its maximum, so the next batch wraps the stamp back to 1: unless
// the wrap empties the dictionary, that batch finds the earlier batch's
// keys still present.
func TestScratchReuseRoutesLikeFreshScratch(t *testing.T) {
	const rows = 200
	base := partition.NewUniformRange(0, rows, 4)
	reused := New(base, activeNodes(4), DefaultConfig(16))
	fresh := New(base, activeNodes(4), DefaultConfig(16))
	rng := rand.New(rand.NewSource(11))
	id := tx.TxnID(1)
	wrapped := false
	for i, size := range []int{1, 40, 3, 0, 200, 2, 0, 64, 64, 64, 1, 150, 5, 0, 90} {
		if i == 7 {
			reused.sc.gen = 0
		}
		txns := diffBatch(rng, id, size, rows)
		id += tx.TxnID(2 * size)
		fresh.sc = scratch{}
		requireSameRoutes(t, i, reused.RouteUser(txns), fresh.RouteUser(txns))
		if rf, ff := reused.pl.Fusion.Fingerprint(), fresh.pl.Fusion.Fingerprint(); rf != ff {
			t.Fatalf("batch %d: fusion tables diverged (%x vs %x)", i, rf, ff)
		}
		if i == 7 {
			if reused.sc.gen != 1 {
				t.Fatalf("stamp = %d after a batch from stamp 0, want 1", reused.sc.gen)
			}
			reused.sc.gen = math.MaxUint32
		}
		if i == 8 {
			wrapped = reused.sc.gen == 1
		}
	}
	if !wrapped {
		t.Fatal("the generation stamp never wrapped")
	}
}
