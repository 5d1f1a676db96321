package telemetry

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"hermes/internal/tx"
)

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, // non-positive clamps to bucket 0
		{1, 1},         // [1,2)
		{2, 2}, {3, 2}, // [2,4)
		{4, 3}, {7, 3}, // [4,8)
		{8, 4},
		{1023, 10}, {1024, 11}, {1025, 11},
		{(1 << 20) - 1, 20}, {1 << 20, 21}, {(1 << 20) + 1, 21},
		{1<<62 + 1, 63}, {int64(1<<63 - 1), 63}, // clamp at the top
	}
	for _, c := range cases {
		if got := histBucket(c.ns); got != c.want {
			t.Errorf("histBucket(%d)=%d, want %d", c.ns, got, c.want)
		}
	}
	// Every positive value must fall strictly below its bucket's upper bound
	// and at or above the previous bucket's.
	for _, ns := range []int64{1, 2, 3, 100, 1e6, 1e9, 1 << 40} {
		b := histBucket(ns)
		if ns >= BucketUpperNs(b) && b < histBuckets-1 {
			t.Errorf("value %d not below upper bound %d of bucket %d", ns, BucketUpperNs(b), b)
		}
		if b > 1 && ns < BucketUpperNs(b-1) {
			t.Errorf("value %d below lower bound %d of bucket %d", ns, BucketUpperNs(b-1), b)
		}
	}
	if BucketUpperNs(0) != 0 || BucketUpperNs(-3) != 0 {
		t.Error("bucket 0 upper bound must be 0")
	}
	if BucketUpperNs(63) != 1<<62 || BucketUpperNs(200) != 1<<62 {
		t.Error("top bucket upper bound must saturate at 1<<62")
	}
}

func TestHistObserveAndSnapshot(t *testing.T) {
	var h LatencyHist
	vals := []int64{0, 1, 3, 1000, -7, 1 << 30}
	for _, v := range vals {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != int64(len(vals)) {
		t.Fatalf("Count=%d, want %d", s.Count, len(vals))
	}
	// Negative clamps to 0 for the sum too.
	wantSum := int64(0 + 1 + 3 + 1000 + 0 + 1<<30)
	if s.SumNs != wantSum {
		t.Fatalf("SumNs=%d, want %d", s.SumNs, wantSum)
	}
	if s.Buckets[0] != 2 { // 0 and -7
		t.Fatalf("bucket 0 holds %d, want 2", s.Buckets[0])
	}
	if got := s.bucketTotal(); got != int64(len(vals)) {
		t.Fatalf("bucketTotal=%d, want %d", got, len(vals))
	}
	if s.MaxNs() != BucketUpperNs(31) {
		t.Fatalf("MaxNs=%d, want %d", s.MaxNs(), BucketUpperNs(31))
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.MaxNs() != 0 || empty.MeanNs() != 0 {
		t.Fatal("empty snapshot must report zeros")
	}
}

// TestHistConcurrentWritersMerge hammers shards from concurrent writers and
// checks the merged snapshot conserves every observation exactly.
func TestHistConcurrentWritersMerge(t *testing.T) {
	const writers, perWriter = 8, 5000
	p := NewPhaseHistograms([]tx.NodeID{0, 1, 2})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				var comps [NumComponents]int64
				comps[CompTotal] = rng.Int63n(1 << 24)
				comps[CompStorage] = comps[CompTotal] / 2
				// Mix known shards with an unknown node (catch-all).
				node := tx.NodeID(rng.Intn(4)) // 3 is unknown
				p.Observe(node, comps)
			}
		}(w)
	}
	wg.Wait()

	merged := p.Merged()
	total := merged[CompTotal]
	if got := total.bucketTotal(); got != writers*perWriter {
		t.Fatalf("merged bucketTotal=%d, want %d", got, writers*perWriter)
	}
	if total.Count != writers*perWriter {
		t.Fatalf("merged Count=%d, want %d", total.Count, writers*perWriter)
	}
	// Per-node shards plus catch-all must partition the merged counts.
	var sum int64
	for _, sh := range p.shards {
		s := sh.comps[CompTotal].Snapshot()
		sum += s.bucketTotal()
	}
	if sum > writers*perWriter {
		t.Fatalf("shard sum %d exceeds merged total", sum)
	}
	if sum == writers*perWriter {
		t.Fatal("catch-all never used despite unknown-node observations")
	}
}

// TestHistQuantileWithinOneBucket is the property test: for random sample
// sets, every reported quantile must be within one power-of-two bucket of
// the exact sample quantile (i.e. exact <= reported <= 2*max(exact,1)).
func TestHistQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 100 + rng.Intn(4000)
		var h LatencyHist
		vals := make([]int64, n)
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = rng.Int63n(1000) // microsecond-scale
			case 1:
				vals[i] = rng.Int63n(1 << 30) // second-scale
			default:
				vals[i] = rng.Int63n(1 << 44) // heavy tail
			}
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			rank := int(q * float64(n))
			if rank >= n {
				rank = n - 1
			}
			exact := vals[rank]
			got := s.Quantile(q)
			// The reported quantile is the containing bucket's upper bound:
			// it must not be below the exact value, and must be within one
			// doubling above it.
			if got < exact {
				t.Fatalf("trial %d q=%v: reported %d < exact %d", trial, q, got, exact)
			}
			lo := exact
			if lo < 1 {
				lo = 1
			}
			if got > 2*lo {
				t.Fatalf("trial %d q=%v: reported %d > 2x exact %d (off by more than one bucket)", trial, q, got, exact)
			}
		}
	}
}

// TestHistQuantileEdges pins the Quantile contract at its edges: empty
// histogram, out-of-range q (clamped, never panics, never escapes the
// observed bucket range), monotonicity in q, and a single sample.
func TestHistQuantileEdges(t *testing.T) {
	var empty HistSnapshot
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %d, want 0", q, got)
		}
	}

	var h LatencyHist
	for _, ns := range []int64{1e3, 1e6, 1e9} {
		h.Observe(ns)
	}
	s := h.Snapshot()
	lo, hi := s.Quantile(0), s.Quantile(1)
	if lo != 1<<10 || hi != 1<<30 {
		t.Errorf("Quantile(0), Quantile(1) = %d, %d, want the 1µs and 1s samples' bucket bounds", lo, hi)
	}
	if got := s.Quantile(-0.5); got != lo {
		t.Errorf("Quantile(-0.5) = %d, want clamp to Quantile(0) = %d", got, lo)
	}
	if got := s.Quantile(1.5); got != hi {
		t.Errorf("Quantile(1.5) = %d, want clamp to Quantile(1) = %d", got, hi)
	}
	last := int64(0)
	for _, q := range []float64{-0.5, 0, 0.25, 0.5, 0.75, 0.99, 1, 1.5} {
		v := s.Quantile(q)
		if v < last {
			t.Errorf("Quantile(%v) = %d < %d: not monotone in q", q, v, last)
		}
		last = v
	}

	var one LatencyHist
	one.Observe(42)
	s = one.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 64 {
			t.Errorf("single-sample Quantile(%v) = %d, want 64", q, got)
		}
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	var a, b LatencyHist
	for i := int64(1); i <= 100; i++ {
		a.Observe(i)
		b.Observe(i * 1000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(sb)
	if merged.Count != 200 || merged.bucketTotal() != 200 {
		t.Fatalf("merged count=%d/%d, want 200", merged.Count, merged.bucketTotal())
	}
	if merged.SumNs != sa.SumNs+sb.SumNs {
		t.Fatal("merged sum mismatch")
	}
	if merged.MaxNs() < sb.MaxNs() {
		t.Fatal("merge lost the larger histogram's max")
	}
}

func TestPhaseHistogramsNilSafe(t *testing.T) {
	var p *PhaseHistograms
	p.Observe(0, [NumComponents]int64{})
	if p.SummaryMap() != nil {
		t.Fatal("nil SummaryMap not nil")
	}
	if err := p.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var tel *Telemetry
	tel.ObserveCommit(0, 1, [NumComponents]int64{CompTotal: 100})
	if tel.Phases() != nil || tel.Tail() != nil {
		t.Fatal("nil telemetry returned non-nil parts")
	}
}

func TestPhasePrometheusExposition(t *testing.T) {
	p := NewPhaseHistograms([]tx.NodeID{0, 1})
	for i := 0; i < 10; i++ {
		p.Observe(0, [NumComponents]int64{
			CompScheduling: 1000, CompStorage: 2000, CompTotal: 5000,
		})
		p.Observe(1, [NumComponents]int64{
			CompScheduling: 3000, CompStorage: 1000, CompTotal: 9000,
		})
	}
	var b strings.Builder
	if err := p.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE hermes_phase_latency_seconds histogram",
		`hermes_phase_latency_seconds_bucket{phase="total",le="+Inf"} 20`,
		`hermes_phase_latency_seconds_count{phase="total"} 20`,
		`hermes_phase_latency_seconds_sum{phase="scheduling"} `,
		`phase="storage"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be non-decreasing per phase and end at the
	// count; spot-check via the total phase: the +Inf bucket equals _count.
	if strings.Count(out, "# TYPE") != 1 {
		t.Errorf("want exactly one TYPE header (one family):\n%s", out)
	}

	sm := p.SummaryMap()
	tot, ok := sm["total"]
	if !ok {
		t.Fatalf("SummaryMap missing total: %v", sm)
	}
	if tot.Count != 20 {
		t.Fatalf("total count=%d, want 20", tot.Count)
	}
	if tot.MeanMs <= 0 || tot.P99Ms < tot.P50Ms || tot.MaxMs < tot.P99Ms {
		t.Fatalf("implausible summary: %+v", tot)
	}
	// queue_plan was always zero -> observed as bucket 0; it must still be
	// present (all components observed every commit) with zero quantiles.
	qp, ok := sm["queue_plan"]
	if !ok {
		t.Fatal("SummaryMap dropped an all-zero component that was observed")
	}
	if qp.P99Ms != 0 {
		t.Fatalf("all-zero component has nonzero p99: %+v", qp)
	}
}
