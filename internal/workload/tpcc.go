package workload

import (
	"math/rand"
	"sync"
	"time"

	"hermes/internal/partition"
	"hermes/internal/tx"
)

// TPC-C table tags within the shared key space.
const (
	TableWarehouse uint8 = 1
	TableDistrict  uint8 = 2
	TableCustomer  uint8 = 3
	TableStock     uint8 = 5
	TableOrder     uint8 = 6
	TableOrderLine uint8 = 7
	TableHistory   uint8 = 8
	TableNewOrder  uint8 = 9
)

// Row-id layout constants.
const (
	districtsPerWarehouse = 10
	customersPerDistrict  = 3000
	orderSeqSpace         = 10_000_000
	orderLinesPerOrder    = 16
)

// TPCCConfig parameterizes the TPC-C workload of §5.3.1 (New-Order and
// Payment only — the two transactions contributing 88% of the standard
// mix).
type TPCCConfig struct {
	// Warehouses in the database; WarehousesPerNode gives the static
	// by-warehouse partitioning (the paper uses 20 nodes × 20
	// warehouses).
	Warehouses        int
	WarehousesPerNode int
	// StockPerWarehouse downsizes the 100k-item stock table while
	// preserving structure.
	StockPerWarehouse int
	// HotSpotProb is the fraction of requests directed at the first
	// node's warehouses (0, 0.5, 0.8, 0.9 in Fig. 11).
	HotSpotProb float64
	// NewOrderRatio is the fraction of New-Order transactions (the rest
	// are Payments); ≈ 0.5 matches the relative standard mix.
	NewOrderRatio float64
	// AbortProb is the probability a New-Order aborts on an invalid item
	// (1% in the spec).
	AbortProb float64
	Payload   int
	Seed      int64
}

// DefaultTPCCConfig returns a downscaled paper-like configuration.
func DefaultTPCCConfig(nodes, warehousesPerNode int) TPCCConfig {
	return TPCCConfig{
		Warehouses:        nodes * warehousesPerNode,
		WarehousesPerNode: warehousesPerNode,
		StockPerWarehouse: 1000,
		NewOrderRatio:     0.5,
		AbortProb:         0.01,
		Payload:           64,
	}
}

// TPCC generates New-Order and Payment transactions. Safe for concurrent
// use.
type TPCC struct {
	cfg TPCCConfig

	mu  sync.Mutex
	rng *rand.Rand
	seq uint64
}

// NewTPCC builds the generator; it panics on invalid configuration.
func NewTPCC(cfg TPCCConfig) *TPCC {
	if cfg.Warehouses <= 0 || cfg.WarehousesPerNode <= 0 || cfg.StockPerWarehouse <= 0 {
		panic("workload: invalid TPC-C config")
	}
	if cfg.Payload == 0 {
		cfg.Payload = 64
	}
	return &TPCC{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Partitioner returns the canonical by-warehouse static partitioning.
func (t *TPCC) Partitioner() partition.Partitioner {
	cfg := t.cfg
	nodes := (cfg.Warehouses + cfg.WarehousesPerNode - 1) / cfg.WarehousesPerNode
	return &partition.Func{
		N: nodes,
		F: func(k tx.Key) tx.NodeID {
			w := WarehouseOf(k)
			n := int(w) / cfg.WarehousesPerNode
			if n >= nodes {
				n = nodes - 1
			}
			return tx.NodeID(n)
		},
	}
}

// WarehouseOf decodes the owning warehouse from any TPC-C key.
func WarehouseOf(k tx.Key) uint64 {
	row := k.Row()
	switch k.Table() {
	case TableWarehouse:
		return row
	case TableDistrict:
		return row / districtsPerWarehouse
	case TableCustomer:
		return row / (districtsPerWarehouse * customersPerDistrict)
	case TableStock:
		return row >> 20
	case TableOrder, TableHistory, TableNewOrder:
		return row / orderSeqSpace
	case TableOrderLine:
		return row / (orderSeqSpace * orderLinesPerOrder)
	default:
		return 0
	}
}

// WarehouseKey returns warehouse w's record key.
func WarehouseKey(w uint64) tx.Key { return tx.MakeKey(TableWarehouse, w) }

// DistrictKey returns district (w, d)'s record key.
func DistrictKey(w, d uint64) tx.Key {
	return tx.MakeKey(TableDistrict, w*districtsPerWarehouse+d)
}

// CustomerKey returns customer (w, d, c)'s record key.
func CustomerKey(w, d, c uint64) tx.Key {
	return tx.MakeKey(TableCustomer, (w*districtsPerWarehouse+d)*customersPerDistrict+c)
}

// StockKey returns stock (w, i)'s record key.
func StockKey(w, i uint64) tx.Key { return tx.MakeKey(TableStock, w<<20|i) }

// ForEachRecord enumerates the initial database (warehouses, districts,
// customers with a downsized customer count, and stock) so callers can
// load it; the value payloads carry counters like every workload here.
func (t *TPCC) ForEachRecord(fn func(k tx.Key, v []byte)) {
	cfg := t.cfg
	for w := uint64(0); w < uint64(cfg.Warehouses); w++ {
		fn(WarehouseKey(w), tx.CounterValue(cfg.Payload, 0))
		for d := uint64(0); d < districtsPerWarehouse; d++ {
			fn(DistrictKey(w, d), tx.CounterValue(cfg.Payload, 0))
			// Customers are sampled lazily by the generator from the
			// first 100 per district to keep load times sane.
			for c := uint64(0); c < 100; c++ {
				fn(CustomerKey(w, d, c), tx.CounterValue(cfg.Payload, 0))
			}
		}
		for i := uint64(0); i < uint64(cfg.StockPerWarehouse); i++ {
			fn(StockKey(w, i), tx.CounterValue(cfg.Payload, 0))
		}
	}
}

// pickWarehouse applies the hot-spot concentration: with HotSpotProb the
// warehouse comes from the first node, otherwise uniform.
func (t *TPCC) pickWarehouse() uint64 {
	if t.rng.Float64() < t.cfg.HotSpotProb {
		return uint64(t.rng.Intn(t.cfg.WarehousesPerNode))
	}
	return uint64(t.rng.Intn(t.cfg.Warehouses))
}

// Next implements Generator.
func (t *TPCC) Next(time.Duration) (*tx.CounterProc, tx.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.pickWarehouse()
	via := tx.NodeID(int(w) / t.cfg.WarehousesPerNode)
	if t.rng.Float64() < t.cfg.NewOrderRatio {
		return t.newOrder(w), via
	}
	return t.payment(w), via
}

// newOrder builds a New-Order: read warehouse/district/customer, bump the
// district's next-order id, read+decrement 5-15 stock records (1% drawn
// from a remote warehouse, per spec), and insert order, new-order, and
// order-line rows under a client-unique order id — the standard
// deterministic-database adaptation, since next_o_id cannot be read
// before the write-set is declared. The inserted rows do not exist yet, so
// they read as counter 0 and are written with counter 1; an invalid item
// aborts the transaction before any access.
func (t *TPCC) newOrder(w uint64) *tx.CounterProc {
	cfg := t.cfg
	d := uint64(t.rng.Intn(districtsPerWarehouse))
	c := uint64(t.rng.Intn(100))
	nItems := 5 + t.rng.Intn(11)
	t.seq = (t.seq + 1) % orderSeqSpace
	orderRow := w*orderSeqSpace + t.seq

	reads := []tx.Key{WarehouseKey(w), DistrictKey(w, d), CustomerKey(w, d, c)}
	writes := []tx.Key{DistrictKey(w, d)}
	seenStock := map[tx.Key]bool{}
	for i := 0; i < nItems; i++ {
		sw := w
		if t.rng.Intn(100) == 0 && cfg.Warehouses > 1 {
			// Remote stock: ~10% of New-Orders become distributed.
			for {
				sw = uint64(t.rng.Intn(cfg.Warehouses))
				if sw != w {
					break
				}
			}
		}
		sk := StockKey(sw, uint64(t.rng.Intn(cfg.StockPerWarehouse)))
		if seenStock[sk] {
			continue
		}
		seenStock[sk] = true
		reads = append(reads, sk)
		writes = append(writes, sk)
	}
	writes = append(writes,
		tx.MakeKey(TableOrder, orderRow),
		tx.MakeKey(TableNewOrder, orderRow),
	)
	for i := 0; i < nItems; i++ {
		writes = append(writes, tx.MakeKey(TableOrderLine, orderRow*orderLinesPerOrder+uint64(i)))
	}

	abort := t.rng.Float64() < cfg.AbortProb
	return &tx.CounterProc{Reads: reads, Writes: writes, Payload: cfg.Payload, Abort: abort}
}

// payment builds a Payment: read+update warehouse/district/customer YTD
// counters and insert a fresh history row (counter 1); 15% of payments go
// through a remote customer, per spec.
func (t *TPCC) payment(w uint64) *tx.CounterProc {
	cfg := t.cfg
	d := uint64(t.rng.Intn(districtsPerWarehouse))
	cw, cd := w, d
	if t.rng.Intn(100) < 15 && cfg.Warehouses > 1 {
		for {
			cw = uint64(t.rng.Intn(cfg.Warehouses))
			if cw != w {
				break
			}
		}
		cd = uint64(t.rng.Intn(districtsPerWarehouse))
	}
	c := uint64(t.rng.Intn(100))
	t.seq = (t.seq + 1) % orderSeqSpace
	histKey := tx.MakeKey(TableHistory, w*orderSeqSpace+t.seq)

	rw := []tx.Key{WarehouseKey(w), DistrictKey(w, d), CustomerKey(cw, cd, c)}
	writes := append(append([]tx.Key(nil), rw...), histKey)
	return &tx.CounterProc{Reads: rw, Writes: writes, Payload: cfg.Payload}
}
