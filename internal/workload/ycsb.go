package workload

import (
	"math/rand"
	"sync"
	"time"

	"hermes/internal/tx"
	"hermes/internal/zipf"
)

// YCSBMix selects one of the standard core workload mixes.
type YCSBMix uint8

// Standard YCSB core workloads.
const (
	// YCSBA is update-heavy: 50% reads, 50% updates.
	YCSBA YCSBMix = iota
	// YCSBB is read-mostly: 95% reads, 5% updates.
	YCSBB
	// YCSBC is read-only.
	YCSBC
	// YCSBF is read-modify-write.
	YCSBF
)

// YCSBConfig parameterizes the plain (non-trace-driven) YCSB generator —
// a simpler sibling of the Google workload, useful for microbenchmarks
// and the quickstart examples.
type YCSBConfig struct {
	Rows uint64
	// Nodes spreads submissions round-robin across front-ends.
	Nodes int
	Mix   YCSBMix
	// Theta is the Zipfian skew (YCSB default 0.99).
	Theta float64
	// KeysPerTxn is the number of records per transaction (default 2;
	// YCSB's default of 1 produces no distributed transactions at all).
	KeysPerTxn int
	// Scramble decorrelates popularity from key order (YCSB's
	// "scrambled zipfian").
	Scramble bool
	Payload  int
	Seed     int64
}

// YCSB generates the standard mixes. Safe for concurrent use.
type YCSB struct {
	cfg YCSBConfig

	mu        sync.Mutex
	rng       *rand.Rand
	plain     *zipf.Zipfian
	scrambled *zipf.Scrambled
	nextNode  int
}

// NewYCSB builds the generator; it panics on invalid configuration.
func NewYCSB(cfg YCSBConfig) *YCSB {
	if cfg.Rows == 0 || cfg.Nodes <= 0 {
		panic("workload: Rows and Nodes are required")
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.99
	}
	if cfg.KeysPerTxn <= 0 {
		cfg.KeysPerTxn = 2
	}
	if cfg.Payload == 0 {
		cfg.Payload = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	y := &YCSB{cfg: cfg, rng: rng}
	if cfg.Scramble {
		y.scrambled = zipf.NewScrambled(rng, cfg.Rows, cfg.Theta)
	} else {
		y.plain = zipf.NewZipfian(rng, cfg.Rows, cfg.Theta)
	}
	return y
}

func (y *YCSB) sample() uint64 {
	if y.scrambled != nil {
		return y.scrambled.Next()
	}
	return y.plain.Next()
}

// Next implements Generator.
func (y *YCSB) Next(time.Duration) (*tx.CounterProc, tx.NodeID) {
	y.mu.Lock()
	defer y.mu.Unlock()
	keys := make([]tx.Key, 0, y.cfg.KeysPerTxn)
	for i := 0; i < y.cfg.KeysPerTxn; i++ {
		keys = append(keys, tx.MakeKey(0, y.sample()))
	}
	keys = tx.NormalizeKeys(keys)
	via := tx.NodeID(y.nextNode)
	y.nextNode = (y.nextNode + 1) % y.cfg.Nodes

	write := false
	switch y.cfg.Mix {
	case YCSBA:
		write = y.rng.Float64() < 0.5
	case YCSBB:
		write = y.rng.Float64() < 0.05
	case YCSBC:
		write = false
	case YCSBF:
		write = true
	}
	if write {
		return &tx.CounterProc{Reads: keys, Writes: keys, Payload: y.cfg.Payload}, via
	}
	return &tx.CounterProc{Reads: keys}, via
}
