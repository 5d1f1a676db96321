package workload

import (
	"math/rand"
	"sync"
	"time"

	"hermes/internal/partition"
	"hermes/internal/tx"
	"hermes/internal/zipf"
)

// MultiTenantConfig parameterizes the multi-tenant workload of §5.3.2:
// each server hosts several non-overlapping tenant databases; every
// transaction reads-modifies-writes two records of a single tenant; a
// large fraction of the requests concentrate on the tenants of one "hot"
// node, and the hot node rotates periodically.
type MultiTenantConfig struct {
	Nodes          int
	TenantsPerNode int
	RowsPerTenant  uint64
	// Concentration is the fraction of requests aimed at the hot node's
	// tenants (0.9 in the paper).
	Concentration float64
	// RotationPeriod moves the hot spot to the next node (500s in the
	// paper; scaled down in the emulation).
	RotationPeriod time.Duration
	// HotNodes fixes the hot node when RotationPeriod is zero (Fig. 14's
	// scale-out uses a static hot spot on node 0).
	HotNode int
	// Theta is the per-tenant Zipfian skew (0.9 in the paper).
	Theta   float64
	Payload int
	Seed    int64
}

// DefaultMultiTenantConfig mirrors §5.3.2 at reduced scale.
func DefaultMultiTenantConfig(nodes int) MultiTenantConfig {
	return MultiTenantConfig{
		Nodes:          nodes,
		TenantsPerNode: 4,
		RowsPerTenant:  2500,
		Concentration:  0.9,
		RotationPeriod: 5 * time.Second,
		Theta:          0.9,
		Payload:        64,
	}
}

// MultiTenant generates the rotating-hot-spot workload. Safe for
// concurrent use.
type MultiTenant struct {
	cfg MultiTenantConfig

	mu  sync.Mutex
	rng *rand.Rand
	z   *zipf.Zipfian
}

// NewMultiTenant builds the generator; it panics on invalid configuration.
func NewMultiTenant(cfg MultiTenantConfig) *MultiTenant {
	if cfg.Nodes <= 0 || cfg.TenantsPerNode <= 0 || cfg.RowsPerTenant == 0 {
		panic("workload: invalid multi-tenant config")
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.9
	}
	if cfg.Payload == 0 {
		cfg.Payload = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &MultiTenant{
		cfg: cfg,
		rng: rng,
		z:   zipf.NewZipfian(rng, cfg.RowsPerTenant, cfg.Theta),
	}
}

// Rows returns the total table size.
func (m *MultiTenant) Rows() uint64 {
	return uint64(m.cfg.Nodes) * uint64(m.cfg.TenantsPerNode) * m.cfg.RowsPerTenant
}

// Partitioner returns the "perfect" initial layout: each tenant's range
// wholly on its node.
func (m *MultiTenant) Partitioner() partition.Partitioner {
	return partition.NewUniformRange(0, m.Rows(), m.cfg.Nodes)
}

// SkewedPartitioner returns the Fig. 13 skewed layout: the first
// `tenantsOnFirst` tenants all on node 0, the rest split evenly.
func (m *MultiTenant) SkewedPartitioner(tenantsOnFirst int) (partition.Partitioner, error) {
	tenantRows := m.cfg.RowsPerTenant
	split := uint64(tenantsOnFirst) * tenantRows
	bounds := []tx.Key{tx.MakeKey(0, 0), tx.MakeKey(0, split)}
	rest := m.Rows() - split
	for i := 1; i < m.cfg.Nodes; i++ {
		bounds = append(bounds, tx.MakeKey(0, split+rest*uint64(i)/uint64(m.cfg.Nodes-1)))
	}
	return partition.NewRangeBoundaries(bounds)
}

// HotNodeAt returns the hot node at the given elapsed time.
func (m *MultiTenant) HotNodeAt(elapsed time.Duration) int {
	if m.cfg.RotationPeriod <= 0 {
		return m.cfg.HotNode
	}
	return (m.cfg.HotNode + int(elapsed/m.cfg.RotationPeriod)) % m.cfg.Nodes
}

// TenantRange returns tenant t's key range [lo, hi).
func (m *MultiTenant) TenantRange(t int) (lo, hi tx.Key) {
	start := uint64(t) * m.cfg.RowsPerTenant
	return tx.MakeKey(0, start), tx.MakeKey(0, start+m.cfg.RowsPerTenant)
}

// Next implements Generator.
func (m *MultiTenant) Next(elapsed time.Duration) (*tx.CounterProc, tx.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cfg := m.cfg
	hot := m.HotNodeAt(elapsed)
	node := m.rng.Intn(cfg.Nodes)
	if m.rng.Float64() < cfg.Concentration {
		node = hot
	}
	tenant := node*cfg.TenantsPerNode + m.rng.Intn(cfg.TenantsPerNode)
	base := uint64(tenant) * cfg.RowsPerTenant
	k1 := tx.MakeKey(0, base+m.z.Next())
	k2 := tx.MakeKey(0, base+m.z.Next())
	keys := tx.NormalizeKeys([]tx.Key{k1, k2})
	return &tx.CounterProc{Reads: keys, Writes: keys, Payload: cfg.Payload}, tx.NodeID(node)
}
