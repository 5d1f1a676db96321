package harness

import (
	"fmt"
	"time"

	"hermes"
	"hermes/internal/engine"
	"hermes/internal/partition"
	"hermes/internal/sequencer"
	"hermes/internal/tx"
)

// TwinConfig mirrors the parts of ClusterConfig that determine execution:
// the twin must agree with the cluster on every one of them or the digests
// can never match.
type TwinConfig struct {
	Workers   int
	Policy    string
	Rows      uint64
	Payload   int
	BatchSize int
	Alpha     float64
	FusionCap int
}

// TwinResult is the in-process emulation's outcome.
type TwinResult struct {
	Digests []engine.NodeDigest
	Result  *RunResult
}

// twinLeaderControl adapts the in-process cluster's sequencer group to the
// driver's leaderControl, over the same counters the cluster's leader
// exposes.
type twinLeaderControl struct{ c *engine.Cluster }

func (t twinLeaderControl) Stats() sequencer.LeaderStats { return t.c.SeqStats() }
func (t twinLeaderControl) Flush()                       { t.c.SeqFlush() }

// RunTwin executes the exact workload the multi-process cluster ran, in a
// single-process emulation with the same policy, batch size, seed data,
// submission order, and end-of-run flush protocol. Determinism says the
// two must converge to byte-identical per-node state digests; RunTwin
// produces the reference side of that comparison.
func RunTwin(cfg TwinConfig, spec WorkloadSpec) (*TwinResult, error) {
	if err := spec.Validate(cfg.BatchSize); err != nil {
		return nil, err
	}
	if cfg.FusionCap == 0 {
		cfg.FusionCap = int(cfg.Rows / 40)
	}
	workers := make([]tx.NodeID, cfg.Workers)
	for i := range workers {
		workers[i] = tx.NodeID(i)
	}
	pf, err := hermes.PolicyFactoryFor(hermes.Policy(cfg.Policy),
		partition.NewUniformRange(0, cfg.Rows, cfg.Workers), cfg.Alpha, cfg.FusionCap)
	if err != nil {
		return nil, err
	}
	db, err := engine.New(engine.Config{
		Nodes:  workers,
		Policy: pf,
		// Identical sealing regime to the cluster: size-only batches, tail
		// flushed by the driver once all submissions are pending.
		Seq: sequencer.Config{BatchSize: cfg.BatchSize},
	})
	if err != nil {
		return nil, err
	}
	defer db.Stop()

	for r := uint64(0); r < cfg.Rows; r++ {
		db.LoadRecord(tx.MakeKey(0, r), tx.CounterValue(cfg.Payload, 0))
	}

	procs, err := spec.Procs()
	if err != nil {
		return nil, err
	}
	d := newDriver()
	if !d.start(len(procs)) {
		return nil, fmt.Errorf("harness: twin driver refused to start")
	}
	res, err := d.run(
		func(p tx.Procedure) (<-chan struct{}, error) { return db.Submit(workers[0], p) },
		procs, spec.Window, twinLeaderControl{db}, runTimeout)
	if err != nil {
		return nil, fmt.Errorf("harness: twin run: %w", err)
	}
	if err := db.DrainDetail(30 * time.Second); err != nil {
		return nil, fmt.Errorf("harness: twin drain: %w", err)
	}
	return &TwinResult{Digests: db.NodeDigests(), Result: res}, nil
}
