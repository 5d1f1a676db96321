package router

import (
	"testing"

	"hermes/internal/fusion"
	"hermes/internal/partition"
	"hermes/internal/tx"
)

// keysOf builds a request reading rs and writing ws.
func reqRW(id tx.TxnID, rs, ws []tx.Key) *tx.Request {
	return tx.NewRequest(id, &tx.CounterProc{Reads: rs, Writes: ws})
}

func active(n int) []tx.NodeID {
	out := make([]tx.NodeID, n)
	for i := range out {
		out[i] = tx.NodeID(i)
	}
	return out
}

func TestPlacementLayering(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2) // 0-49 -> n0, 50-99 -> n1
	fus := fusion.New(10, fusion.LRU)
	pl := NewPlacement(base, active(2), fus)
	k := tx.MakeKey(0, 10)
	if pl.Owner(k) != 0 || pl.Home(k) != 0 {
		t.Fatal("base layer wrong")
	}
	pl.SetHome(k, 1)
	if pl.Owner(k) != 1 || pl.Home(k) != 1 {
		t.Fatal("override layer not consulted")
	}
	fus.Put(k, 0)
	if pl.Owner(k) != 0 {
		t.Fatal("fusion layer not consulted first")
	}
	if pl.Home(k) != 1 {
		t.Fatal("Home must ignore the fusion layer")
	}
}

func TestPlacementActiveSet(t *testing.T) {
	pl := NewPlacement(partition.NewHash(3), []tx.NodeID{2, 0, 1}, nil)
	a := pl.Active()
	if len(a) != 3 || a[0] != 0 || a[2] != 2 {
		t.Fatalf("Active = %v, want sorted [0 1 2]", a)
	}
	pl.AddNode(5)
	pl.AddNode(5) // idempotent
	if len(pl.Active()) != 4 {
		t.Fatalf("Active after add = %v", pl.Active())
	}
	pl.RemoveNode(1)
	pl.RemoveNode(99) // no-op
	a = pl.Active()
	if len(a) != 3 || a[0] != 0 || a[1] != 2 || a[2] != 5 {
		t.Fatalf("Active after remove = %v", a)
	}
}

func TestCalvinMultiMasterRoute(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 4) // 25 rows per node
	c := NewCalvin(base, active(4))
	k := func(row uint64) tx.Key { return tx.MakeKey(0, row) }
	// Reads span nodes 0,1; writes span nodes 2,3.
	r := reqRW(1, []tx.Key{k(0), k(30)}, []tx.Key{k(60), k(90)})
	routes := c.RouteUser([]*tx.Request{r})
	if len(routes) != 1 {
		t.Fatalf("routes = %d", len(routes))
	}
	rt := routes[0]
	if rt.Mode != MultiMaster {
		t.Fatal("Calvin must be multi-master")
	}
	if len(rt.Writers) != 2 || rt.Writers[0] != 2 || rt.Writers[1] != 3 {
		t.Fatalf("Writers = %v, want [2 3]", rt.Writers)
	}
	if rt.Master != 2 {
		t.Fatalf("Master = %d, want lowest writer 2", rt.Master)
	}
	if len(rt.Migrations) != 0 || len(rt.WriteBack) != 0 {
		t.Fatal("Calvin must not migrate or write back")
	}
	if rt.Owners.Get(k(30)) != 1 {
		t.Fatalf("Owners[k30] = %d", rt.Owners.Get(k(30)))
	}
}

func TestCalvinReadOnlyRoute(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	c := NewCalvin(base, active(2))
	r := reqRW(1, []tx.Key{tx.MakeKey(0, 75)}, nil)
	rt := c.RouteUser([]*tx.Request{r})[0]
	if len(rt.Writers) != 1 || rt.Writers[0] != 1 {
		t.Fatalf("read-only route Writers = %v, want [1]", rt.Writers)
	}
}

func TestGStoreMajorityAndWriteBack(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	g := NewGStore(base, active(2))
	k := func(row uint64) tx.Key { return tx.MakeKey(0, row) }
	// Two keys on node 0, one on node 1; majority -> node 0.
	r := reqRW(1, []tx.Key{k(1), k(2), k(60)}, []tx.Key{k(60)})
	rt := g.RouteUser([]*tx.Request{r})[0]
	if rt.Mode != SingleMaster || rt.Master != 0 {
		t.Fatalf("Master = %d, want 0", rt.Master)
	}
	if len(rt.WriteBack) != 1 || rt.WriteBack[0] != k(60) {
		t.Fatalf("WriteBack = %v, want [k60]", rt.WriteBack)
	}
	if len(rt.Migrations) != 0 {
		t.Fatal("G-Store must not migrate ownership")
	}
	// A second identical transaction pays the same cost again: placement
	// unchanged.
	rt2 := g.RouteUser([]*tx.Request{reqRW(2, []tx.Key{k(1), k(2), k(60)}, []tx.Key{k(60)})})[0]
	if len(rt2.WriteBack) != 1 {
		t.Fatal("G-Store placement must be static across transactions")
	}
}

func TestLEAPMigratesAndRemembers(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	l := NewLEAP(base, active(2))
	k := func(row uint64) tx.Key { return tx.MakeKey(0, row) }
	r1 := reqRW(1, []tx.Key{k(1), k(2), k(60)}, []tx.Key{k(60)})
	rt1 := l.RouteUser([]*tx.Request{r1})[0]
	if rt1.Master != 0 {
		t.Fatalf("Master = %d, want 0 (majority)", rt1.Master)
	}
	if len(rt1.Migrations) != 1 || rt1.Migrations[0].Key != k(60) || rt1.Migrations[0].To != 0 {
		t.Fatalf("Migrations = %v", rt1.Migrations)
	}
	// The next transaction touching k60 finds it on node 0: no migration.
	r2 := reqRW(2, []tx.Key{k(60)}, []tx.Key{k(60)})
	rt2 := l.RouteUser([]*tx.Request{r2})[0]
	if rt2.Master != 0 || len(rt2.Migrations) != 0 {
		t.Fatalf("temporal locality not exploited: master=%d migs=%v", rt2.Master, rt2.Migrations)
	}
}

func TestLEAPDropsRedundantOwnershipEntries(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	l := NewLEAP(base, active(2))
	k := tx.MakeKey(0, 60) // home = node 1
	// Move k to node 0, then back home to node 1.
	l.RouteUser([]*tx.Request{reqRW(1, []tx.Key{tx.MakeKey(0, 1), tx.MakeKey(0, 2), k}, []tx.Key{k})})
	if l.pl.Fusion.Len() != 1 {
		t.Fatalf("ownership entries = %d, want 1", l.pl.Fusion.Len())
	}
	l.RouteUser([]*tx.Request{reqRW(2, []tx.Key{tx.MakeKey(0, 61), tx.MakeKey(0, 62), k}, []tx.Key{k})})
	if l.pl.Fusion.Len() != 0 {
		t.Fatalf("redundant entry kept: %d", l.pl.Fusion.Len())
	}
}

func TestTPartBalancesLoad(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	tp := NewTPart(base, active(2), 0)
	// Six transactions all hitting node 0's range: T-Part must not send
	// them all to node 0 (theta = 3).
	var txns []*tx.Request
	for i := 0; i < 6; i++ {
		txns = append(txns, reqRW(tx.TxnID(i+1), []tx.Key{tx.MakeKey(0, uint64(i))}, []tx.Key{tx.MakeKey(0, uint64(i))}))
	}
	routes := tp.RouteUser(txns)
	counts := map[tx.NodeID]int{}
	for _, rt := range routes {
		counts[rt.Master]++
	}
	if counts[0] > 3 {
		t.Fatalf("node 0 got %d of 6 transactions; theta violated", counts[0])
	}
}

func TestTPartReturnsRecordsHome(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	tp := NewTPart(base, active(2), 1.0) // generous theta: routing by locality
	k := tx.MakeKey(0, 10)               // home node 0
	// One transaction reads k plus a node-1-heavy set, so master is 1 and
	// k is forward-pushed there; the batch must return k to node 0.
	r := reqRW(1, []tx.Key{k, tx.MakeKey(0, 60), tx.MakeKey(0, 70)}, []tx.Key{k})
	routes := tp.RouteUser([]*tx.Request{r})
	rt := routes[0]
	if rt.Master != 1 {
		t.Fatalf("Master = %d, want 1", rt.Master)
	}
	// Expect migration in (0->1) and write-back out (1->0).
	if len(rt.Migrations) != 2 {
		t.Fatalf("Migrations = %v, want in+out", rt.Migrations)
	}
	if rt.Migrations[0].From != 0 || rt.Migrations[0].To != 1 ||
		rt.Migrations[1].From != 1 || rt.Migrations[1].To != 0 {
		t.Fatalf("Migrations = %v", rt.Migrations)
	}
	// Next batch: placement is back to static, so the same transaction
	// migrates again (T-Part cannot retain placement across batches).
	routes2 := tp.RouteUser([]*tx.Request{reqRW(2, []tx.Key{k, tx.MakeKey(0, 60), tx.MakeKey(0, 70)}, []tx.Key{k})})
	if len(routes2[0].Migrations) == 0 {
		t.Fatal("T-Part unexpectedly retained cross-batch placement")
	}
}

func TestTPartForwardPushWithinBatch(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	tp := NewTPart(base, active(2), 1.0)
	k := tx.MakeKey(0, 10)
	other1 := tx.MakeKey(0, 60)
	// T1 writes k at master 1 (pulled from 0); T2 reads k — the overlay
	// must report k at node 1, so T2 routed to 1 sees it locally.
	t1 := reqRW(1, []tx.Key{k, other1, tx.MakeKey(0, 70)}, []tx.Key{k})
	t2 := reqRW(2, []tx.Key{k}, nil)
	routes := tp.RouteUser([]*tx.Request{t1, t2})
	if routes[1].Master != 1 {
		t.Fatalf("T2 master = %d, want 1 (forward push)", routes[1].Master)
	}
	if routes[1].Owners.Get(k) != 1 {
		t.Fatalf("T2 owner of k = %d, want 1", routes[1].Owners.Get(k))
	}
	// The write-back must be attached to T2 (last toucher), not T1.
	if len(routes[0].Migrations) != 1 {
		t.Fatalf("T1 migrations = %v, want only inbound", routes[0].Migrations)
	}
	if len(routes[1].Migrations) != 1 || routes[1].Migrations[0].To != 0 {
		t.Fatalf("T2 migrations = %v, want write-back to 0", routes[1].Migrations)
	}
}

func TestBuildPlanSegmentsAroundControlTxns(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	c := NewCalvin(base, active(2))
	k := tx.MakeKey(0, 10)
	batch := &tx.Batch{Seq: 3, Txns: []*tx.Request{
		reqRW(1, []tx.Key{k}, []tx.Key{k}),
		tx.NewRequest(2, &tx.MigrationProc{Keys: []tx.Key{k}, To: 1}),
		reqRW(3, []tx.Key{k}, []tx.Key{k}),
	}}
	plan := BuildPlan(c, batch)
	if plan.Seq != 3 || len(plan.Routes) != 3 {
		t.Fatalf("plan = seq %d, %d routes", plan.Seq, len(plan.Routes))
	}
	// Before migration k is owned by node 0; after, by node 1.
	if plan.Routes[0].Owners.Get(k) != 0 {
		t.Fatalf("pre-migration owner = %d", plan.Routes[0].Owners.Get(k))
	}
	mig := plan.Routes[1]
	if mig.Mode != SingleMaster || len(mig.Migrations) != 1 || mig.Migrations[0].From != 0 || mig.Migrations[0].To != 1 {
		t.Fatalf("migration route = %+v", mig)
	}
	if plan.Routes[2].Owners.Get(k) != 1 {
		t.Fatalf("post-migration owner = %d", plan.Routes[2].Owners.Get(k))
	}
}

func TestBuildPlanColdMigrationSkipsHotKeys(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	fus := fusion.New(10, fusion.LRU)
	pl := NewPlacement(base, active(2), fus)
	pol := &stubPolicy{pl: pl}
	hot := tx.MakeKey(0, 5)
	cold := tx.MakeKey(0, 6)
	fus.Put(hot, 0)
	batch := &tx.Batch{Txns: []*tx.Request{
		tx.NewRequest(1, &tx.MigrationProc{Keys: []tx.Key{hot, cold}, To: 1}),
	}}
	plan := BuildPlan(pol, batch)
	mig := plan.Routes[0]
	if len(mig.Migrations) != 1 || mig.Migrations[0].Key != cold {
		t.Fatalf("Migrations = %v, want only the cold key", mig.Migrations)
	}
	// The hot key's home moved anyway, so its eventual eviction lands on
	// the new node.
	if pl.Home(hot) != 1 {
		t.Fatalf("hot key home = %d, want 1", pl.Home(hot))
	}
}

func TestBuildPlanProvisionAddRemove(t *testing.T) {
	base := partition.NewUniformRange(0, 100, 2)
	fus := fusion.New(10, fusion.LRU)
	pl := NewPlacement(base, active(2), fus)
	pol := &stubPolicy{pl: pl}
	k := tx.MakeKey(0, 60) // home node 1
	fus.Put(k, 1)          // hot entry on node 1 (also its home here? no: home(60)=1)
	fus.Put(tx.MakeKey(0, 10), 1)

	batch := &tx.Batch{Txns: []*tx.Request{
		tx.NewRequest(1, &tx.ProvisionProc{Add: []tx.NodeID{2}}),
	}}
	BuildPlan(pol, batch)
	if len(pl.Active()) != 3 {
		t.Fatalf("Active = %v after add", pl.Active())
	}

	batch2 := &tx.Batch{Txns: []*tx.Request{
		tx.NewRequest(2, &tx.ProvisionProc{Remove: []tx.NodeID{1}}),
	}}
	plan := BuildPlan(pol, batch2)
	if len(pl.Active()) != 2 {
		t.Fatalf("Active = %v after remove", pl.Active())
	}
	rt := plan.Routes[0]
	if rt.Mode != Provision {
		t.Fatal("provision route mode wrong")
	}
	// Both fusion entries lived on node 1 and must migrate off it.
	if len(rt.Migrations) != 2 {
		t.Fatalf("Migrations = %v, want 2 off the removed node", rt.Migrations)
	}
	for _, m := range rt.Migrations {
		if m.From != 1 || m.To == 1 {
			t.Fatalf("bad eviction migration %v", m)
		}
	}
	if fus.Len() != 0 {
		t.Fatalf("fusion still tracks %d entries on a dead node", fus.Len())
	}
}

func TestRouteParticipants(t *testing.T) {
	rt := &Route{
		Mode:   SingleMaster,
		Master: 2,
		Owners: Owners{{Key: 1, Node: 0}, {Key: 2, Node: 2}},
		Migrations: []Migration{
			{Key: 1, From: 0, To: 2},
			{Key: 9, From: 3, To: 1},
		},
	}
	got := rt.Participants()
	want := []tx.NodeID{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Participants = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Participants = %v, want %v", got, want)
		}
	}
}

type stubPolicy struct{ pl *Placement }

func (s *stubPolicy) Name() string          { return "stub" }
func (s *stubPolicy) Placement() *Placement { return s.pl }
func (s *stubPolicy) RouteUser(txns []*tx.Request) []*Route {
	out := make([]*Route, len(txns))
	for i, r := range txns {
		out[i] = &Route{Txn: r, Mode: SingleMaster, Master: s.pl.Active()[0], Owners: ownersOf(s.pl, r.AccessSet())}
	}
	return out
}
