package workload

import (
	"sync"
	"testing"
	"time"

	"hermes/internal/trace"
	"hermes/internal/tx"
)

type fakeCtx struct {
	vals    map[tx.Key][]byte
	writes  map[tx.Key][]byte
	aborted bool
}

func (c *fakeCtx) Read(k tx.Key) []byte     { return c.vals[k] }
func (c *fakeCtx) Write(k tx.Key, v []byte) { c.writes[k] = v }
func (c *fakeCtx) Abort(string)             { c.aborted = true }
func (c *fakeCtx) Aborted() bool            { return c.aborted }

func googleGen(t *testing.T, nodes int) *Google {
	t.Helper()
	tr := trace.Generate(trace.DefaultConfig(nodes, 50, 1))
	return NewGoogle(GoogleConfig{
		Rows: 10000, Nodes: nodes, Trace: tr,
		WindowDur: 100 * time.Millisecond, DistributedRatio: 0.5,
		ReadWriteRatio: 0.5, Theta: 0.9, SweepPeriod: 10 * time.Second,
		Payload: 32, Seed: 3,
	})
}

func TestGoogleGeneratesValidTxns(t *testing.T) {
	g := googleGen(t, 4)
	reads, writes := 0, 0
	for i := 0; i < 2000; i++ {
		proc, via := g.Next(time.Duration(i) * time.Millisecond)
		if via < 0 || int(via) >= 4 {
			t.Fatalf("via node %d out of range", via)
		}
		rs := proc.ReadSet()
		if len(rs) == 0 {
			t.Fatal("transaction with no reads")
		}
		for _, k := range rs {
			if k.Row() >= 10000 {
				t.Fatalf("key %v out of table", k)
			}
		}
		reads++
		if len(proc.WriteSet()) > 0 {
			writes++
		}
	}
	// Roughly half read-write.
	if writes < reads/4 || writes > reads*3/4 {
		t.Errorf("read-write fraction = %d/%d, want ≈ 1/2", writes, reads)
	}
}

func TestGoogleTxnLength(t *testing.T) {
	tr := trace.Generate(trace.DefaultConfig(2, 10, 1))
	g := NewGoogle(GoogleConfig{
		Rows: 10000, Nodes: 2, Trace: tr,
		RecordsMean: 10, RecordsStd: 3, Theta: 0.5, Seed: 5,
	})
	total := 0
	const samples = 500
	for i := 0; i < samples; i++ {
		proc, _ := g.Next(0)
		total += len(proc.ReadSet())
	}
	mean := float64(total) / samples
	// Normalized key dedup trims a little; accept a broad band around 10.
	if mean < 6 || mean > 12 {
		t.Errorf("mean transaction length = %f, want ≈ 10", mean)
	}
}

func TestGoogleHotSpotSweeps(t *testing.T) {
	g := googleGen(t, 2)
	// Sample distributed keys early and late in the sweep; their
	// centers of mass must differ.
	sum := func(el time.Duration) uint64 {
		var s uint64
		for i := 0; i < 500; i++ {
			proc, _ := g.Next(el)
			ks := proc.ReadSet()
			s += ks[len(ks)-1].Row()
		}
		return s / 500
	}
	early := sum(0)
	late := sum(5 * time.Second) // half sweep: peak at mid key space
	if early == late {
		t.Error("global hot spot does not move")
	}
}

func TestGooglePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGoogle(GoogleConfig{})
}

func TestTPCCKeysDecodeWarehouse(t *testing.T) {
	cases := []struct {
		k tx.Key
		w uint64
	}{
		{WarehouseKey(7), 7},
		{DistrictKey(7, 3), 7},
		{CustomerKey(7, 3, 100), 7},
		{StockKey(7, 55), 7},
		{tx.MakeKey(TableOrder, 7*orderSeqSpace+123), 7},
		{tx.MakeKey(TableOrderLine, (7*orderSeqSpace+123)*orderLinesPerOrder+5), 7},
		{tx.MakeKey(TableHistory, 7*orderSeqSpace+9), 7},
	}
	for _, c := range cases {
		if got := WarehouseOf(c.k); got != c.w {
			t.Errorf("WarehouseOf(%v) = %d, want %d", c.k, got, c.w)
		}
	}
}

func TestTPCCPartitionerColocatesWarehouse(t *testing.T) {
	gen := NewTPCC(DefaultTPCCConfig(4, 5)) // 20 warehouses
	p := gen.Partitioner()
	if p.Nodes() != 4 {
		t.Fatalf("Nodes = %d", p.Nodes())
	}
	for w := uint64(0); w < 20; w++ {
		want := tx.NodeID(w / 5)
		for _, k := range []tx.Key{WarehouseKey(w), DistrictKey(w, 9), CustomerKey(w, 9, 2999), StockKey(w, 999)} {
			if got := p.Home(k); got != want {
				t.Fatalf("Home(%v) = %d, want %d", k, got, want)
			}
		}
	}
}

func TestTPCCTxnsAreWellFormed(t *testing.T) {
	gen := NewTPCC(DefaultTPCCConfig(4, 5))
	newOrders, payments := 0, 0
	for i := 0; i < 1000; i++ {
		proc, via := gen.Next(0)
		if via < 0 || via >= 4 {
			t.Fatalf("via = %d", via)
		}
		rs, ws := proc.ReadSet(), proc.WriteSet()
		if len(rs) == 0 || len(ws) == 0 {
			t.Fatal("empty access sets")
		}
		hasStock := false
		for _, k := range ws {
			if k.Table() == TableStock {
				hasStock = true
			}
		}
		if hasStock {
			newOrders++
		} else {
			payments++
		}
	}
	if newOrders == 0 || payments == 0 {
		t.Fatalf("mix = %d new-orders, %d payments", newOrders, payments)
	}
}

func TestTPCCHotSpotConcentration(t *testing.T) {
	cfg := DefaultTPCCConfig(4, 5)
	cfg.HotSpotProb = 0.9
	gen := NewTPCC(cfg)
	hot := 0
	const samples = 1000
	for i := 0; i < samples; i++ {
		_, via := gen.Next(0)
		if via == 0 {
			hot++
		}
	}
	// 90% + 10%/4 ≈ 92.5% of requests on node 0.
	if hot < samples*80/100 {
		t.Errorf("hot node got %d/%d requests, want ≈ 92%%", hot, samples)
	}
}

func TestTPCCNewOrderAbortLogic(t *testing.T) {
	cfg := DefaultTPCCConfig(1, 1)
	cfg.AbortProb = 1.0
	cfg.NewOrderRatio = 1.0
	gen := NewTPCC(cfg)
	proc, _ := gen.Next(0)
	ctx := &fakeCtx{vals: map[tx.Key][]byte{}, writes: map[tx.Key][]byte{}}
	for _, k := range proc.ReadSet() {
		ctx.vals[k] = tx.CounterValue(16, 0)
	}
	proc.Execute(ctx)
	if !ctx.aborted {
		t.Fatal("AbortProb=1 New-Order did not abort")
	}
	if len(ctx.writes) != 0 {
		t.Fatalf("aborted New-Order wrote %d records", len(ctx.writes))
	}
}

func TestTPCCLoadEnumerates(t *testing.T) {
	gen := NewTPCC(TPCCConfig{
		Warehouses: 2, WarehousesPerNode: 1, StockPerWarehouse: 10,
		NewOrderRatio: 0.5, Payload: 16,
	})
	count := 0
	gen.ForEachRecord(func(k tx.Key, v []byte) {
		count++
		if len(v) != 16 {
			t.Fatalf("payload size %d", len(v))
		}
	})
	// Per warehouse: 1 + 10 districts ×(1 + 100 customers) + 10 stock.
	want := 2 * (1 + 10*(1+100) + 10)
	if count != want {
		t.Fatalf("records = %d, want %d", count, want)
	}
}

func TestMultiTenantKeysStayInTenant(t *testing.T) {
	gen := NewMultiTenant(DefaultMultiTenantConfig(4))
	rows := gen.cfg.RowsPerTenant
	for i := 0; i < 1000; i++ {
		proc, _ := gen.Next(0)
		ks := proc.ReadSet()
		t0 := ks[0].Row() / rows
		for _, k := range ks {
			if k.Row()/rows != t0 {
				t.Fatalf("transaction spans tenants: %v", ks)
			}
		}
	}
}

func TestMultiTenantConcentration(t *testing.T) {
	cfg := DefaultMultiTenantConfig(4)
	cfg.RotationPeriod = 0
	cfg.HotNode = 2
	gen := NewMultiTenant(cfg)
	hot := 0
	const samples = 1000
	for i := 0; i < samples; i++ {
		_, via := gen.Next(0)
		if via == 2 {
			hot++
		}
	}
	if hot < samples*8/10 {
		t.Errorf("hot node got %d/%d, want ≈ 92%%", hot, samples)
	}
}

func TestMultiTenantRotation(t *testing.T) {
	cfg := DefaultMultiTenantConfig(4)
	cfg.RotationPeriod = time.Second
	gen := NewMultiTenant(cfg)
	if gen.HotNodeAt(0) == gen.HotNodeAt(time.Second) {
		t.Error("hot node did not rotate")
	}
	if gen.HotNodeAt(0) != gen.HotNodeAt(4*time.Second) {
		t.Error("rotation did not wrap around")
	}
}

func TestMultiTenantPartitioners(t *testing.T) {
	gen := NewMultiTenant(DefaultMultiTenantConfig(4))
	p := gen.Partitioner()
	if p.Nodes() != 4 {
		t.Fatalf("Nodes = %d", p.Nodes())
	}
	lo, hi := gen.TenantRange(0)
	if p.Home(lo) != 0 || p.Home(hi-1) != 0 {
		t.Error("tenant 0 not wholly on node 0 under perfect layout")
	}
	sk, err := gen.SkewedPartitioner(7)
	if err != nil {
		t.Fatal(err)
	}
	// First 7 tenants on node 0.
	lo6, _ := gen.TenantRange(6)
	if sk.Home(lo6) != 0 {
		t.Error("skewed layout: tenant 6 not on node 0")
	}
	lo8, _ := gen.TenantRange(8)
	if sk.Home(lo8) == 0 {
		t.Error("skewed layout: tenant 8 still on node 0")
	}
}

func TestDriverClosedLoop(t *testing.T) {
	gen := NewMultiTenant(DefaultMultiTenantConfig(2))
	sub := &fakeSubmitter{}
	d := &Driver{Gen: gen, Clients: 4}
	d.Run(sub, time.Now())
	time.Sleep(50 * time.Millisecond)
	d.Stop()
	if sub.count() == 0 {
		t.Fatal("driver submitted nothing")
	}
	before := sub.count()
	time.Sleep(20 * time.Millisecond)
	if sub.count() != before {
		t.Fatal("driver kept submitting after Stop")
	}
}

type fakeSubmitter struct {
	mu sync.Mutex
	n  int
}

func (f *fakeSubmitter) Submit(tx.NodeID, tx.Procedure) (<-chan struct{}, error) {
	f.mu.Lock()
	f.n++
	f.mu.Unlock()
	done := make(chan struct{})
	close(done)
	return done, nil
}

func (f *fakeSubmitter) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}
