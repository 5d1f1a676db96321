package workload

// The closure procedures the generators produced before every generated
// transaction became a tx.CounterProc, kept as a test-only reference: the
// same role core/reference_test.go plays for the router. The reference
// owns its own counter encoding so it does not lean on the code it checks.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"hermes/internal/trace"
	"hermes/internal/tx"
)

func refValue(size int, counter uint64) []byte {
	if size < 8 {
		size = 8
	}
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, counter)
	return v
}

func refCounter(v []byte) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// refIncrementProc is the old IncrementProc: an OpProc whose Mutate
// closure bumps each written key's counter, reading every declared key
// first.
func refIncrementProc(reads, writes []tx.Key, payload int) tx.Procedure {
	return &tx.FuncProc{Reads: reads, Writes: writes, Fn: func(ctx tx.ExecCtx) {
		read := make(map[tx.Key][]byte, len(reads))
		for _, k := range reads {
			read[k] = ctx.Read(k)
		}
		for _, k := range writes {
			cur, ok := read[k]
			if !ok {
				cur = ctx.Read(k)
			}
			ctx.Write(k, refValue(payload, refCounter(cur)+1))
		}
	}}
}

// refReadProc is the old ReadProc: an OpProc that only reads.
func refReadProc(keys []tx.Key) tx.Procedure {
	return &tx.FuncProc{Reads: keys, Fn: func(ctx tx.ExecCtx) {
		for _, k := range keys {
			ctx.Read(k)
		}
	}}
}

// refNext is the old TPCC.Next, drawing from t's generator state exactly
// as Next does.
func (t *TPCC) refNext() tx.Procedure {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.pickWarehouse()
	if t.rng.Float64() < t.cfg.NewOrderRatio {
		return t.refNewOrder(w)
	}
	return t.refPayment(w)
}

// refNewOrder is the old New-Order closure.
func (t *TPCC) refNewOrder(w uint64) tx.Procedure {
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
	payload := cfg.Payload
	return &tx.FuncProc{
		Reads:  reads,
		Writes: writes,
		Fn: func(ctx tx.ExecCtx) {
			if abort {
				ctx.Abort("invalid item")
				return
			}
			for _, k := range writes {
				switch k.Table() {
				case TableDistrict, TableStock:
					ctx.Write(k, refValue(payload, refCounter(ctx.Read(k))+1))
				default:
					ctx.Write(k, refValue(payload, 1))
				}
			}
		},
	}
}

// refPayment is the old Payment closure.
func (t *TPCC) refPayment(w uint64) tx.Procedure {
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
	payload := cfg.Payload
	return &tx.FuncProc{
		Reads:  rw,
		Writes: writes,
		Fn: func(ctx tx.ExecCtx) {
			for _, k := range rw {
				ctx.Write(k, refValue(payload, refCounter(ctx.Read(k))+1))
			}
			ctx.Write(histKey, refValue(payload, 1))
		},
	}
}

// mapCtx is a map-backed ExecCtx that applies writes (so later
// transactions see them) and logs them in order; an abort discards the
// transaction's writes, as the engine's undo log does.
type mapCtx struct {
	state   map[tx.Key][]byte
	log     []string
	pending map[tx.Key][]byte
	aborted bool
}

func (c *mapCtx) Read(k tx.Key) []byte {
	if v, ok := c.pending[k]; ok {
		return v
	}
	return c.state[k]
}

func (c *mapCtx) Write(k tx.Key, v []byte) {
	if c.aborted {
		return
	}
	c.pending[k] = v
	c.log = append(c.log, fmt.Sprintf("%v=%x", k, v))
}

func (c *mapCtx) Abort(string)  { c.aborted = true }
func (c *mapCtx) Aborted() bool { return c.aborted }

// run executes p against c's state and reports the write log and abort
// flag of that one transaction.
func (c *mapCtx) run(p tx.Procedure) ([]string, bool) {
	c.log, c.pending, c.aborted = nil, map[tx.Key][]byte{}, false
	p.Execute(c)
	if !c.aborted {
		for k, v := range c.pending {
			c.state[k] = v
		}
	}
	return c.log, c.aborted
}

// TestProceduresMatchClosureReference runs every generator's CounterProc
// and the closure procedure the generator used to build, over identical
// map-backed state, and requires identical declared sets, writes and
// abort flags, transaction by transaction.
func TestProceduresMatchClosureReference(t *testing.T) {
	const seeds, txns = 20, 2000
	type pair struct {
		got  *tx.CounterProc
		want tx.Procedure
	}
	// fromKeys rebuilds the old YCSB-shaped procedure: those generators'
	// key choice is unchanged, only the procedure constructor is.
	fromKeys := func(p *tx.CounterProc, payload int) tx.Procedure {
		if len(p.Writes) == 0 {
			return refReadProc(p.Reads)
		}
		return refIncrementProc(p.Reads, p.Writes, payload)
	}
	workloads := []struct {
		name string
		// setup returns the initial state and a source of pairs.
		setup func(seed int64) (map[tx.Key][]byte, func(i int) pair)
	}{
		{"ycsb", func(seed int64) (map[tx.Key][]byte, func(int) pair) {
			gen := NewYCSB(YCSBConfig{Rows: 500, Nodes: 3, Mix: YCSBA, KeysPerTxn: 3, Payload: 24, Seed: seed})
			return rowState(500, 24), func(int) pair {
				p, _ := gen.Next(0)
				return pair{p, fromKeys(p, 24)}
			}
		}},
		{"google", func(seed int64) (map[tx.Key][]byte, func(int) pair) {
			gen := NewGoogle(GoogleConfig{
				Rows: 1000, Nodes: 3, Trace: trace.Generate(trace.DefaultConfig(3, 10, seed)),
				DistributedRatio: 0.5, ReadWriteRatio: 0.5, RecordsMean: 4, RecordsStd: 2,
				Payload: 40, Seed: seed,
			})
			return rowState(1000, 40), func(i int) pair {
				p, _ := gen.Next(time.Duration(i) * time.Millisecond)
				return pair{p, fromKeys(p, 40)}
			}
		}},
		{"multitenant", func(seed int64) (map[tx.Key][]byte, func(int) pair) {
			cfg := DefaultMultiTenantConfig(3)
			cfg.RowsPerTenant, cfg.Payload, cfg.Seed = 50, 4, seed
			gen := NewMultiTenant(cfg)
			return rowState(gen.Rows(), 4), func(i int) pair {
				p, _ := gen.Next(time.Duration(i) * 10 * time.Millisecond)
				return pair{p, fromKeys(p, 4)}
			}
		}},
		{"tpcc", func(seed int64) (map[tx.Key][]byte, func(int) pair) {
			cfg := DefaultTPCCConfig(2, 2)
			cfg.StockPerWarehouse, cfg.HotSpotProb, cfg.AbortProb, cfg.Seed = 50, 0.5, 0.05, seed
			gen, ref := NewTPCC(cfg), NewTPCC(cfg)
			state := map[tx.Key][]byte{}
			gen.ForEachRecord(func(k tx.Key, _ []byte) { state[k] = refValue(cfg.Payload, 0) })
			return state, func(int) pair {
				p, _ := gen.Next(0)
				return pair{p, ref.refNext()}
			}
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			aborts, writes := 0, 0
			for seed := int64(1); seed <= seeds; seed++ {
				state, next := w.setup(seed)
				gotCtx, wantCtx := &mapCtx{state: state}, &mapCtx{state: cloneState(state)}
				for i := 0; i < txns; i++ {
					p := next(i)
					if !slices.Equal(p.got.ReadSet(), p.want.ReadSet()) || !slices.Equal(p.got.WriteSet(), p.want.WriteSet()) {
						t.Fatalf("seed %d txn %d: declared sets %v / %v, reference %v / %v",
							seed, i, p.got.ReadSet(), p.got.WriteSet(), p.want.ReadSet(), p.want.WriteSet())
					}
					gotLog, gotAbort := gotCtx.run(p.got)
					wantLog, wantAbort := wantCtx.run(p.want)
					if gotAbort != wantAbort || !slices.Equal(gotLog, wantLog) {
						t.Fatalf("seed %d txn %d: writes %v (aborted %v), reference %v (aborted %v)",
							seed, i, gotLog, gotAbort, wantLog, wantAbort)
					}
					if gotAbort {
						aborts++
					}
					writes += len(gotLog)
				}
				for k, v := range wantCtx.state {
					if !bytes.Equal(gotCtx.state[k], v) {
						t.Fatalf("seed %d: final state of %v is %x, reference %x", seed, k, gotCtx.state[k], v)
					}
				}
				if len(gotCtx.state) != len(wantCtx.state) {
					t.Fatalf("seed %d: %d records, reference %d", seed, len(gotCtx.state), len(wantCtx.state))
				}
			}
			if writes == 0 || (w.name == "tpcc" && aborts == 0) {
				t.Fatalf("the comparison exercised %d writes and %d aborts", writes, aborts)
			}
		})
	}
}

func rowState(rows uint64, payload int) map[tx.Key][]byte {
	state := make(map[tx.Key][]byte, rows)
	for i := uint64(0); i < rows; i++ {
		state[tx.MakeKey(0, i)] = refValue(payload, 0)
	}
	return state
}

func cloneState(s map[tx.Key][]byte) map[tx.Key][]byte {
	out := make(map[tx.Key][]byte, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}
