package workload

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"hermes/internal/trace"
	"hermes/internal/tx"
	"hermes/internal/zipf"
)

// GoogleConfig parameterizes the YCSB-based Google workload of §5.2.2.
type GoogleConfig struct {
	// Rows is the table size (the paper loads 200M 1KB records; the
	// emulation downsizes, preserving skew).
	Rows uint64
	// Nodes is the number of server partitions the trace modulates.
	Nodes int
	// Trace drives the per-machine demand distribution; it must have at
	// least Nodes machines. WindowDur maps trace windows to elapsed time.
	Trace     *trace.Cluster
	WindowDur time.Duration
	// DistributedRatio is the fraction of transactions that add a
	// globally distributed record (0.5 in the paper).
	DistributedRatio float64
	// ReadWriteRatio is the fraction of read-modify-write transactions
	// (0.5 in the paper; the rest are read-only).
	ReadWriteRatio float64
	// RecordsMean/RecordsStd control transaction length (Fig. 9): the
	// number of accessed records is drawn from N(mean, std), min 2.
	// Zero mean defaults to the paper's 2-record transactions.
	RecordsMean float64
	RecordsStd  float64
	// Theta is the per-partition Zipfian skew (YCSB default 0.99 unless
	// set).
	Theta float64
	// SweepPeriod is the time for the global hot spot to sweep the whole
	// key space once ("active users around the world in 24 hours").
	SweepPeriod time.Duration
	// Payload is the record size in bytes (1KB in the paper).
	Payload int
	Seed    int64
}

// Google generates the complex trace-driven workload. Safe for concurrent
// use.
type Google struct {
	cfg GoogleConfig

	mu     sync.Mutex
	rng    *rand.Rand
	local  *zipf.Zipfian   // intra-partition skew
	global *zipf.TwoSided  // global moving-peak distribution
	peak   zipf.MovingPeak // sweep position
}

// NewGoogle builds the generator. It panics on invalid configuration.
func NewGoogle(cfg GoogleConfig) *Google {
	if cfg.Rows == 0 || cfg.Nodes <= 0 || cfg.Trace == nil {
		panic("workload: Rows, Nodes, and Trace are required")
	}
	if cfg.Trace.Machines() < cfg.Nodes {
		panic("workload: trace has fewer machines than nodes")
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.99
	}
	if cfg.WindowDur <= 0 {
		cfg.WindowDur = time.Second
	}
	if cfg.SweepPeriod <= 0 {
		cfg.SweepPeriod = time.Minute
	}
	if cfg.Payload == 0 {
		cfg.Payload = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rowsPerPart := cfg.Rows / uint64(cfg.Nodes)
	if rowsPerPart == 0 {
		rowsPerPart = 1
	}
	return &Google{
		cfg:    cfg,
		rng:    rng,
		local:  zipf.NewZipfian(rng, rowsPerPart, cfg.Theta),
		global: zipf.NewTwoSided(rng, cfg.Rows, cfg.Theta),
		peak:   zipf.MovingPeak{N: cfg.Rows, Period: cfg.SweepPeriod.Seconds()},
	}
}

// Next implements Generator.
func (g *Google) Next(elapsed time.Duration) (*tx.CounterProc, tx.NodeID) {
	g.mu.Lock()
	defer g.mu.Unlock()

	w := int(elapsed / g.cfg.WindowDur)
	if max := g.cfg.Trace.Windows(); w >= max {
		w = max - 1
	}
	shares := g.cfg.Trace.Shares(w)

	// Transaction length (Fig. 9): default 2 records.
	n := 2
	if g.cfg.RecordsMean > 0 {
		n = int(math.Round(g.rng.NormFloat64()*g.cfg.RecordsStd + g.cfg.RecordsMean))
		if n < 2 {
			n = 2
		}
	}

	keys := make([]tx.Key, 0, n)
	// Local records follow the trace-weighted partition choice plus the
	// per-partition Zipfian.
	nLocal := n
	distributed := g.rng.Float64() < g.cfg.DistributedRatio
	if distributed {
		nLocal = n / 2
		if nLocal == 0 {
			nLocal = 1
		}
	}
	part := g.pickPartition(shares[:g.cfg.Nodes])
	rowsPerPart := g.cfg.Rows / uint64(g.cfg.Nodes)
	for i := 0; i < nLocal; i++ {
		row := uint64(part)*rowsPerPart + g.local.Next()
		keys = append(keys, tx.MakeKey(0, row%g.cfg.Rows))
	}
	// Distributed records come from the global two-sided Zipfian whose
	// peak sweeps the key space over time.
	for i := nLocal; i < n; i++ {
		row := g.global.Next(g.peak.At(elapsed.Seconds()))
		keys = append(keys, tx.MakeKey(0, row))
	}
	keys = tx.NormalizeKeys(keys)

	via := tx.NodeID(part)
	if g.rng.Float64() < g.cfg.ReadWriteRatio {
		return &tx.CounterProc{Reads: keys, Writes: keys, Payload: g.cfg.Payload}, via
	}
	return &tx.CounterProc{Reads: keys}, via
}

// pickPartition samples a partition index proportional to shares.
func (g *Google) pickPartition(shares []float64) int {
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total <= 0 {
		return g.rng.Intn(len(shares))
	}
	u := g.rng.Float64() * total
	acc := 0.0
	for i, s := range shares {
		acc += s
		if u < acc {
			return i
		}
	}
	return len(shares) - 1
}
