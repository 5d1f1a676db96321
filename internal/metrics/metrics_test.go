package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestBreakdownTotalAddScale(t *testing.T) {
	b := Breakdown{Scheduling: 1, LockWait: 2, Storage: 3, RemoteWait: 4, Other: 5}
	if b.Total() != 15 {
		t.Errorf("Total = %d, want 15", b.Total())
	}
	sum := b.Add(b)
	if sum.Total() != 30 || sum.LockWait != 4 {
		t.Errorf("Add = %+v", sum)
	}
	half := sum.Scale(2)
	if half != b {
		t.Errorf("Scale(2) = %+v, want %+v", half, b)
	}
	if got := b.Scale(0); got != b {
		t.Errorf("Scale(0) changed value: %+v", got)
	}
}

func TestCollectorThroughputWindows(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewCollector(start, time.Second)
	c.RecordCommit(start.Add(100*time.Millisecond), Breakdown{})
	c.RecordCommit(start.Add(900*time.Millisecond), Breakdown{})
	c.RecordCommit(start.Add(1500*time.Millisecond), Breakdown{})
	c.RecordCommit(start.Add(3100*time.Millisecond), Breakdown{})
	got := c.Throughput()
	want := []int64{2, 1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("Throughput = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Throughput = %v, want %v", got, want)
		}
	}
	if c.Committed() != 4 {
		t.Errorf("Committed = %d", c.Committed())
	}
}

func TestCollectorCommitBeforeStartClamps(t *testing.T) {
	start := time.Unix(100, 0)
	c := NewCollector(start, time.Second)
	c.RecordCommit(start.Add(-5*time.Second), Breakdown{})
	got := c.Throughput()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Throughput = %v, want [1]", got)
	}
}

func TestCollectorAvgBreakdown(t *testing.T) {
	c := NewCollector(time.Unix(0, 0), time.Second)
	now := time.Unix(1, 0)
	c.RecordCommit(now, Breakdown{LockWait: 10 * time.Millisecond})
	c.RecordCommit(now, Breakdown{LockWait: 30 * time.Millisecond, RemoteWait: 4 * time.Millisecond})
	avg := c.AvgBreakdown()
	if avg.LockWait != 20*time.Millisecond {
		t.Errorf("avg LockWait = %v, want 20ms", avg.LockWait)
	}
	if avg.RemoteWait != 2*time.Millisecond {
		t.Errorf("avg RemoteWait = %v, want 2ms", avg.RemoteWait)
	}
}

func TestCollectorCounters(t *testing.T) {
	c := NewCollector(time.Unix(0, 0), time.Second)
	c.RecordAbort()
	c.RecordMigration(5)
	c.RecordMigration(3)
	c.RecordRemoteReads(7)
	if c.Aborted() != 1 || c.Migrations() != 8 || c.RemoteReads() != 7 {
		t.Errorf("counters = %d,%d,%d", c.Aborted(), c.Migrations(), c.RemoteReads())
	}
}

func TestCollectorBusyFraction(t *testing.T) {
	c := NewCollector(time.Unix(0, 0), time.Second)
	c.AddBusy(3, 250*time.Millisecond)
	c.AddBusy(3, 250*time.Millisecond)
	if got := c.BusyFraction(3, time.Second); got != 0.5 {
		t.Errorf("BusyFraction = %f, want 0.5", got)
	}
	if got := c.BusyFraction(9, time.Second); got != 0 {
		t.Errorf("unknown node BusyFraction = %f, want 0", got)
	}
	if got := c.BusyFraction(3, 0); got != 0 {
		t.Errorf("zero elapsed BusyFraction = %f, want 0", got)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(time.Unix(0, 0), 100*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := time.Unix(0, 0).Add(time.Duration(g) * 50 * time.Millisecond)
			for i := 0; i < 1000; i++ {
				c.RecordCommit(now, Breakdown{Other: time.Microsecond})
				c.AddBusy(g, time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if c.Committed() != 8000 {
		t.Fatalf("Committed = %d, want 8000", c.Committed())
	}
	var total int64
	for _, v := range c.Throughput() {
		total += v
	}
	if total != 8000 {
		t.Fatalf("window sum = %d, want 8000", total)
	}
}

func TestCollectorLatencyQuantile(t *testing.T) {
	c := NewCollector(time.Unix(0, 0), time.Second)
	if c.LatencyQuantile(0.5) != 0 {
		t.Error("quantile of no commits != 0")
	}
	now := time.Unix(1, 0)
	for i := 0; i < 900; i++ {
		c.RecordCommit(now, Breakdown{Storage: time.Microsecond})
	}
	for i := 0; i < 100; i++ {
		c.RecordCommit(now, Breakdown{LockWait: time.Second}) // rare slow tail
	}
	// Quantiles are the containing power-of-two bucket's upper bound.
	if p50 := c.LatencyQuantile(0.5); p50 != 1024*time.Nanosecond {
		t.Errorf("p50 = %v, want the 1µs sample's bucket bound 1.024µs", p50)
	}
	if p99 := c.LatencyQuantile(0.995); p99 != 1<<30 {
		t.Errorf("p99.5 = %v, want the 1s sample's bucket bound 1.074s", p99)
	}
}

func BenchmarkRecordCommit(b *testing.B) {
	c := NewCollector(time.Unix(0, 0), time.Second)
	now := time.Unix(5, 0)
	bd := Breakdown{LockWait: time.Millisecond}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RecordCommit(now, bd)
	}
}

func TestRoutingStats(t *testing.T) {
	c := NewCollector(time.Unix(0, 0), time.Second)
	if s := c.Routing(); s.Batches != 0 || s.PerBatch != 0 || s.PerTxn != 0 {
		t.Fatalf("empty collector routing stats = %+v", s)
	}
	c.RecordRouting(100, 2*time.Millisecond)
	c.RecordRouting(300, 4*time.Millisecond)
	s := c.Routing()
	if s.Batches != 2 || s.Txns != 400 {
		t.Fatalf("counts = %d batches / %d txns, want 2/400", s.Batches, s.Txns)
	}
	if s.Total != 6*time.Millisecond {
		t.Fatalf("total = %v, want 6ms", s.Total)
	}
	if s.PerBatch != 3*time.Millisecond {
		t.Fatalf("per-batch = %v, want 3ms", s.PerBatch)
	}
	if s.PerTxn != 15*time.Microsecond {
		t.Fatalf("per-txn = %v, want 15µs", s.PerTxn)
	}
}
