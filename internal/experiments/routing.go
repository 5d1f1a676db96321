package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"hermes/internal/core"
	"hermes/internal/partition"
	"hermes/internal/tx"
)

// RoutingCost reproduces the §3.2.4 routing-overhead measurement: the
// prescient analysis of a whole batch must stay a small, predictable
// slice of end-to-end latency (the paper reports a few milliseconds per
// 1000-transaction batch on 20 nodes, ~4% of transaction latency).
//
// Two measurements are reported:
//   - "route-us(n=…)": in-process microbenchmark series — mean µs to
//     route one batch with RouteUser alone, across batch sizes, for small
//     and paper-scale node counts (BenchmarkPrescientRouting's grid);
//   - "pct-of-latency": a measured cluster run with the Hermes policy,
//     reporting scheduler routing time as a percentage of mean
//     transaction latency (the paper's ~4% row).
func RoutingCost(sc Scale) (*Result, error) {
	res := &Result{
		Name: "routingcost", Title: "Prescient routing cost (§3.2.4)",
		XLabel: "batch size", YLabel: "µs per batch",
	}

	// Microbenchmark grid: route pre-generated batches against a fresh
	// router per (n, b) point; enough repetitions to get a stable mean
	// without rivaling `go test -bench` runtimes.
	const rows = 1_000_000
	bsizes := []int{100, 250, 500, 1000}
	for _, n := range []int{4, 20} {
		s := Series{Label: fmt.Sprintf("route-us(n=%d)", n)}
		for _, bsize := range bsizes {
			p := core.New(partition.NewUniformRange(0, rows, n), nodeIDs(n), core.DefaultConfig(100_000))
			rng := rand.New(rand.NewSource(sc.Seed))
			batches := routingCostBatches(rng, rows, bsize, 8)
			const reps = 32
			start := time.Now()
			for i := 0; i < reps; i++ {
				p.RouteUser(batches[i%len(batches)])
			}
			perBatch := time.Since(start) / reps
			s.X = append(s.X, float64(bsize))
			s.Y = append(s.Y, us(perBatch))
		}
		res.Series = append(res.Series, s)
	}

	// Cluster run: the same collector the latency figures use, so the
	// ratio compares like with like (routing time vs mean commit latency).
	base := partition.NewUniformRange(0, sc.Rows, sc.Nodes)
	sys := system{name: "Hermes", policy: hermesPolicy(base, int(float64(sc.Rows)*sc.FusionFrac))}
	out, err := runGoogle(sc, sys, 0, 0)
	if err != nil {
		return nil, err
	}
	bd := out.Breakdown
	avgLatencyUs := (bd.Scheduling + bd.LockWait + bd.Storage + bd.RemoteWait + bd.Other) * 1e3
	pct := 0.0
	if avgLatencyUs > 0 {
		pct = out.RoutingPerTxnUs / avgLatencyUs * 100
	}
	res.Series = append(res.Series, Series{
		Label: "cluster",
		X:     []float64{1, 2, 3},
		Y:     []float64{out.RoutingPerBatchUs, out.RoutingPerTxnUs, pct},
	})
	res.Notes = append(res.Notes,
		"cluster row: 1=µs/batch 2=µs/txn 3=routing as % of mean latency (paper: ~4% at b=1000, n=20)",
		fmt.Sprintf("cluster run: %d nodes, batch %d, %.1f µs/batch, %.2f%% of latency",
			sc.Nodes, sc.BatchSize, out.RoutingPerBatchUs, pct))
	return res, nil
}

// routingCostBatches mirrors the benchmark workload in
// internal/core (2 keys per transaction, 1 written).
func routingCostBatches(rng *rand.Rand, rows uint64, bsize, pool int) [][]*tx.Request {
	out := make([][]*tx.Request, pool)
	id := tx.TxnID(1)
	for p := range out {
		batch := make([]*tx.Request, 0, bsize)
		for i := 0; i < bsize; i++ {
			var rs, ws []tx.Key
			for j := 0; j < 2; j++ {
				k := tx.MakeKey(0, uint64(rng.Intn(int(rows))))
				rs = append(rs, k)
				if j == 0 {
					ws = append(ws, k)
				}
			}
			batch = append(batch, tx.NewRequest(id, &tx.OpProc{Reads: rs, Writes: ws}))
			id++
		}
		out[p] = batch
	}
	return out
}
