package engine

import (
	"fmt"
	"testing"

	"hermes/internal/network"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/tx"
)

// TestSeedRowsMatchesLoadRecord pins the bulk seeder to the per-row path.
// A cluster seeded by SeedRows must hold, node by node, the store digest,
// record count and value bytes (NodeDigests) of one seeded row by row with
// LoadRecord: for 1, 3 and 4 nodes, values of 4 and 64 bytes, row counts
// that the node count does not divide, and a row that a placement override
// re-homes off its range. Every seeded value is capacity-capped, so an
// append to one can never write into its slab neighbour. A worker hosting
// node 1 of a 3-node cluster seeds exactly the emulation's node-1 share.
func TestSeedRowsMatchesLoadRecord(t *testing.T) {
	for _, nodes := range []int{1, 3, 4} {
		for _, size := range []int{4, 64} {
			for _, rows := range []uint64{1, 301, 1001} {
				t.Run(fmt.Sprintf("nodes=%d/size=%d/rows=%d", nodes, size, rows), func(t *testing.T) {
					ids := make([]tx.NodeID, nodes)
					for i := range ids {
						ids[i] = tx.NodeID(i)
					}
					pf := seedPolicy(rows, nodes)
					// Row 0 is homed on node 0 by range; the override moves
					// it to the last node.
					moved := tx.MakeKey(0, 0)
					build := func() *Cluster {
						c, err := New(Config{Nodes: ids, Policy: pf})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(c.Stop)
						for _, n := range c.nodeList() {
							n.policy.Placement().SetHome(moved, ids[nodes-1])
						}
						return c
					}

					want := build()
					for r := uint64(0); r < rows; r++ {
						want.LoadRecord(tx.MakeKey(0, r), make([]byte, size))
					}
					got := build()
					if n := got.SeedRows(rows, size); uint64(n) != rows {
						t.Fatalf("SeedRows wrote %d rows, want %d", n, rows)
					}
					assertDigests(t, got.NodeDigests(), want.NodeDigests())
					for _, n := range got.nodeList() {
						for _, k := range n.store.Keys() {
							if v, _ := n.store.Read(k); len(v) != size || cap(v) != size {
								t.Fatalf("node %d key %v: len %d cap %d, want both %d", n.id, k, len(v), cap(v), size)
							}
						}
					}
					if v, ok := got.node(ids[nodes-1]).store.Read(moved); !ok || len(v) != size {
						t.Fatalf("overridden row not at node %d", ids[nodes-1])
					}

					if nodes != 3 {
						return
					}
					tr := network.NewChanTransport([]tx.NodeID{0, 1, 2, LeaderNode}, nil)
					w, err := NewWorker(WorkerConfig{
						Self: 1, Workers: ids, Transport: tr, NetStats: tr.Stats(), Policy: pf,
					})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(w.Stop)
					for _, n := range w.nodeList() {
						n.policy.Placement().SetHome(moved, ids[nodes-1])
					}
					share := want.NodeDigests()[1]
					if n := w.SeedRows(rows, size); n != share.Records {
						t.Fatalf("worker 1 seeded %d rows, want its share %d", n, share.Records)
					}
					assertDigests(t, w.NodeDigests(), []NodeDigest{share})
				})
			}
		}
	}
}

// seedPolicy routes with Calvin over the static range layout of rows.
func seedPolicy(rows uint64, nodes int) PolicyFactory {
	base := partition.NewUniformRange(0, rows, nodes)
	return func(a []tx.NodeID) router.Policy { return router.NewCalvin(base, a) }
}

func assertDigests(t *testing.T, got, want []NodeDigest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d node digests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("node %d: bulk seed %+v, per-row seed %+v", want[i].Node, got[i], want[i])
		}
	}
}
