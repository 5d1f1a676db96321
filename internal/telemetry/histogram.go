package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"

	"hermes/internal/tx"
)

// Component is one piece of a committed transaction's latency
// decomposition, mirroring metrics.Breakdown plus the total. The engine
// reports all components for every commit (zeros included); lock_wait is
// always 0 since admission became per-key queues.
type Component uint8

// Latency components, in the order the engine reports them.
const (
	// CompScheduling: sequencer arrival to executor dispatch.
	CompScheduling Component = iota
	// CompLockWait: conservative lock acquisition wait; zero since
	// admission became per-key queues (CompQueueWait).
	CompLockWait
	// CompQueuePlan: per-key queue planning share.
	CompQueuePlan
	// CompQueueWait: wait for predecessor operations in the key queues.
	CompQueueWait
	// CompStorage: storage read/write time.
	CompStorage
	// CompRemoteWait: wait for remote records (multi-partition txns).
	CompRemoteWait
	// CompOther: residual (total minus the sum of the above).
	CompOther
	// CompTotal: submit-to-commit total latency.
	CompTotal
	// NumComponents is the component count (array sizing).
	NumComponents
)

// String returns the Prometheus-safe component label.
func (c Component) String() string {
	switch c {
	case CompScheduling:
		return "scheduling"
	case CompLockWait:
		return "lock_wait"
	case CompQueuePlan:
		return "queue_plan"
	case CompQueueWait:
		return "queue_wait"
	case CompStorage:
		return "storage"
	case CompRemoteWait:
		return "remote_wait"
	case CompOther:
		return "other"
	case CompTotal:
		return "total"
	default:
		return fmt.Sprintf("component(%d)", uint8(c))
	}
}

// histBuckets is the fixed bucket count: bucket 0 holds the value 0 and
// bucket i (i >= 1) holds [2^(i-1), 2^i) nanoseconds, so 63 buckets cover
// every non-negative int64.
const histBuckets = 64

// histBucket maps a non-negative latency to its bucket index.
func histBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketUpperNs returns the exclusive upper bound of bucket i in
// nanoseconds (0 for bucket 0's inclusive single value).
func BucketUpperNs(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(1) << 62 // saturate rather than overflow
	}
	return int64(1) << uint(i)
}

// LatencyHist is a lock-free log2-bucketed latency histogram. Observe is
// three uncontended-cacheline atomics; there is no lock anywhere, so it
// is safe on the commit hot path from every executor concurrently.
type LatencyHist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one latency in nanoseconds (negative clamps to zero).
func (h *LatencyHist) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[histBucket(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observations so far.
func (h *LatencyHist) Count() int64 { return h.count.Load() }

// Snapshot copies the histogram into an immutable snapshot. Concurrent
// writers may land between field loads; the snapshot is still a valid
// histogram (every observed value is in some bucket), just not a perfect
// point-in-time cut.
func (h *LatencyHist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a LatencyHist, mergeable across
// shards and serializable into reports.
type HistSnapshot struct {
	Buckets [histBuckets]int64 `json:"buckets"`
	Count   int64              `json:"count"`
	SumNs   int64              `json:"sum_ns"`
}

// Merge adds o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.SumNs += o.SumNs
}

// bucketTotal sums the buckets (the authoritative count for quantiles;
// Count can lag behind under concurrent snapshot).
func (s *HistSnapshot) bucketTotal() int64 {
	var n int64
	for i := range s.Buckets {
		n += s.Buckets[i]
	}
	return n
}

// Quantile returns the q-quantile (0 <= q <= 1) as the upper bound of the
// bucket containing it — within one power-of-two bucket of the exact
// sample quantile. Returns 0 on an empty histogram.
func (s *HistSnapshot) Quantile(q float64) int64 {
	total := s.bucketTotal()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range s.Buckets {
		seen += s.Buckets[i]
		if seen > rank {
			return BucketUpperNs(i)
		}
	}
	return BucketUpperNs(histBuckets - 1)
}

// MeanNs returns the exact mean in nanoseconds (sum is tracked exactly).
func (s *HistSnapshot) MeanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}

// MaxNs returns the upper bound of the highest non-empty bucket.
func (s *HistSnapshot) MaxNs() int64 {
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return BucketUpperNs(i)
		}
	}
	return 0
}

// phaseShard is one node's set of per-component histograms.
type phaseShard struct {
	comps [NumComponents]LatencyHist
}

// PhaseHistograms shards per-component commit-latency histograms by node.
// The shard map is immutable after construction (same discipline as the
// tracer's rings), so Observe is entirely lock-free; scrapes merge the
// shards into one snapshot per component.
type PhaseHistograms struct {
	shards map[tx.NodeID]*phaseShard
	// catchAll absorbs observations for nodes outside the construction
	// set so no commit is ever silently dropped.
	catchAll *phaseShard
}

// NewPhaseHistograms builds one shard per node plus the catch-all.
func NewPhaseHistograms(nodes []tx.NodeID) *PhaseHistograms {
	p := &PhaseHistograms{
		shards:   make(map[tx.NodeID]*phaseShard, len(nodes)),
		catchAll: &phaseShard{},
	}
	for _, n := range nodes {
		p.shards[n] = &phaseShard{}
	}
	return p
}

// Observe records one commit's full latency decomposition at node.
// Nil-safe; lock-free.
func (p *PhaseHistograms) Observe(node tx.NodeID, comps [NumComponents]int64) {
	if p == nil {
		return
	}
	sh, ok := p.shards[node]
	if !ok {
		sh = p.catchAll
	}
	for c := 0; c < int(NumComponents); c++ {
		sh.comps[c].Observe(comps[c])
	}
}

// Merged returns one merged-across-nodes snapshot per component.
// Nil-safe (zero snapshots).
func (p *PhaseHistograms) Merged() [NumComponents]HistSnapshot {
	var out [NumComponents]HistSnapshot
	if p == nil {
		return out
	}
	for _, sh := range p.shards {
		for c := range out {
			s := sh.comps[c].Snapshot()
			out[c].Merge(s)
		}
	}
	for c := range out {
		s := p.catchAll.comps[c].Snapshot()
		out[c].Merge(s)
	}
	return out
}

// WritePrometheus renders the merged per-component histograms as one
// Prometheus histogram family, hermes_phase_latency_seconds, with a
// phase label per component: cumulative _bucket{le=...} series (le is
// the bucket upper bound in seconds), _sum, and _count. Empty leading
// and trailing buckets are trimmed; +Inf always closes the series.
func (p *PhaseHistograms) WritePrometheus(w io.Writer) error {
	if p == nil {
		return nil
	}
	const fam = "hermes_phase_latency_seconds"
	if _, err := fmt.Fprintf(w, "# HELP %s Commit latency decomposition by lifecycle phase.\n# TYPE %s histogram\n", fam, fam); err != nil {
		return err
	}
	merged := p.Merged()
	for c := Component(0); c < NumComponents; c++ {
		s := merged[c]
		lo, hi := 0, -1
		for i := range s.Buckets {
			if s.Buckets[i] != 0 {
				if hi < 0 {
					lo = i
				}
				hi = i
			}
		}
		var cum int64
		for i := lo; i <= hi; i++ {
			cum += s.Buckets[i]
			le := float64(BucketUpperNs(i)) / 1e9
			if _, err := fmt.Fprintf(w, "%s_bucket{phase=%q,le=%q} %d\n", fam, c, formatLe(le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{phase=%q,le=\"+Inf\"} %d\n", fam, c, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum{phase=%q} %g\n", fam, c, float64(s.SumNs)/1e9); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count{phase=%q} %d\n", fam, c, cum); err != nil {
			return err
		}
	}
	return nil
}

// formatLe renders a bucket bound without exponent noise for small
// values (Prometheus accepts any float syntax; this keeps it readable).
func formatLe(v float64) string {
	return fmt.Sprintf("%g", v)
}

// PhaseSummary is a compact report view of one component's histogram:
// the fields hermes-bench -report embeds per run.
type PhaseSummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summarize reduces a snapshot to the report fields.
func (s *HistSnapshot) Summarize() PhaseSummary {
	return PhaseSummary{
		Count:  s.bucketTotal(),
		MeanMs: s.MeanNs() / 1e6,
		P50Ms:  float64(s.Quantile(0.50)) / 1e6,
		P95Ms:  float64(s.Quantile(0.95)) / 1e6,
		P99Ms:  float64(s.Quantile(0.99)) / 1e6,
		MaxMs:  float64(s.MaxNs()) / 1e6,
	}
}

// SummaryMap returns the merged snapshots as a component-name -> summary
// map (the run-report / stats form).
func (p *PhaseHistograms) SummaryMap() map[string]PhaseSummary {
	if p == nil {
		return nil
	}
	merged := p.Merged()
	out := make(map[string]PhaseSummary, int(NumComponents))
	for c := Component(0); c < NumComponents; c++ {
		s := merged[c]
		if s.bucketTotal() == 0 {
			continue
		}
		out[c.String()] = s.Summarize()
	}
	return out
}
