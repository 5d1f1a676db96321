package core

import (
	"testing"

	"hermes/internal/partition"
	"hermes/internal/tx"
)

func TestAblatedFullEqualsPrescient(t *testing.T) {
	// With no ablations enabled, the ablated router must produce exactly
	// the plan the real prescient router produces.
	base := partition.NewUniformRange(0, 200, 3)
	mkTxns := func() []*tx.Request {
		var txns []*tx.Request
		for i := 0; i < 20; i++ {
			k1 := tx.MakeKey(0, uint64(i*7%200))
			k2 := tx.MakeKey(0, uint64(i*13%200))
			txns = append(txns, reqRW(tx.TxnID(i+1), []tx.Key{k1, k2}, []tx.Key{k1}))
		}
		return txns
	}
	full := New(base, activeNodes(3), DefaultConfig(20))
	abl := NewAblated(base, activeNodes(3), DefaultConfig(20), Ablation{})
	rf := full.RouteUser(mkTxns())
	ra := abl.RouteUser(mkTxns())
	if len(rf) != len(ra) {
		t.Fatalf("lengths differ: %d vs %d", len(rf), len(ra))
	}
	for i := range rf {
		if rf[i].Txn.ID != ra[i].Txn.ID || rf[i].Master != ra[i].Master {
			t.Fatalf("plans diverge at %d: %d@%d vs %d@%d",
				i, rf[i].Txn.ID, rf[i].Master, ra[i].Txn.ID, ra[i].Master)
		}
	}
}

func TestNoReorderPreservesArrivalOrder(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	p := NewAblated(base, activeNodes(2), Config{Alpha: 10, FusionCapacity: 50}, Ablation{NoReorder: true, NoRebalance: true})
	var txns []*tx.Request
	for i := 0; i < 10; i++ {
		k := tx.MakeKey(0, uint64(i*10))
		txns = append(txns, reqRW(tx.TxnID(i+1), []tx.Key{k}, []tx.Key{k}))
	}
	routes := p.RouteUser(txns)
	for i, rt := range routes {
		if rt.Txn.ID != tx.TxnID(i+1) {
			t.Fatalf("position %d has txn %d; order not preserved", i, rt.Txn.ID)
		}
	}
}

func TestNoRebalanceSkipsThetaConstraint(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	// All keys on node 0: without rebalancing everything routes there.
	p := NewAblated(base, activeNodes(2), DefaultConfig(0), Ablation{NoRebalance: true})
	var txns []*tx.Request
	for i := 0; i < 8; i++ {
		k := tx.MakeKey(0, uint64(i))
		txns = append(txns, reqRW(tx.TxnID(i+1), []tx.Key{k}, []tx.Key{k}))
	}
	loads := map[tx.NodeID]int{}
	for _, rt := range p.RouteUser(txns) {
		loads[rt.Master]++
	}
	if loads[0] != 8 {
		t.Fatalf("loads = %v; NoRebalance should keep affinity routing", loads)
	}
	// And the full router must split them (θ = 4).
	full := New(base, activeNodes(2), DefaultConfig(0))
	loads = map[tx.NodeID]int{}
	for _, rt := range full.RouteUser(txns) {
		loads[rt.Master]++
	}
	if loads[0] > 4 {
		t.Fatalf("full router loads = %v; θ violated", loads)
	}
}

func TestNoFusionNeverMigrates(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	p := NewAblated(base, activeNodes(2), DefaultConfig(50), Ablation{NoFusion: true})
	k0, k1 := tx.MakeKey(0, 1), tx.MakeKey(0, 60) // different homes
	for round := 0; round < 3; round++ {
		routes := p.RouteUser([]*tx.Request{
			reqRW(tx.TxnID(round*2+1), []tx.Key{k0, k1}, []tx.Key{k0, k1}),
			reqRW(tx.TxnID(round*2+2), []tx.Key{k0, k1}, []tx.Key{k0, k1}),
		})
		for _, rt := range routes {
			if len(rt.Migrations) != 0 {
				t.Fatalf("NoFusion migrated: %v", rt.Migrations)
			}
			if len(rt.WriteBack) == 0 {
				t.Fatal("remote write did not become a write-back")
			}
		}
	}
	if p.Placement().Fusion.Len() != 0 {
		t.Fatalf("fusion table populated under NoFusion: %d", p.Placement().Fusion.Len())
	}
}

func TestNoFusionStablePlacement(t *testing.T) {
	// Placement must remain the static layout forever under NoFusion.
	base := partition.NewUniformRange(0, 100, 2)
	p := NewAblated(base, activeNodes(2), DefaultConfig(50), Ablation{NoFusion: true})
	k := tx.MakeKey(0, 60)
	p.RouteUser([]*tx.Request{reqRW(1, []tx.Key{tx.MakeKey(0, 1), k}, []tx.Key{k})})
	if got := p.Placement().Owner(k); got != 1 {
		t.Fatalf("owner drifted to %d under NoFusion", got)
	}
}
