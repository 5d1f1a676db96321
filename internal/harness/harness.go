// Package harness boots a real multi-process Hermes cluster: it spawns one
// hermesd process per worker node, wires them together over TCPTransport on
// loopback, seeds every process from the same deterministic record stream,
// drives a closed-loop client workload against the cluster, and collects
// per-process metrics plus per-node state digests at quiescence.
//
// The harness exists to take the single-process emulation's determinism
// claim across OS process boundaries: the same seed, policy, and batch size
// must yield node digests byte-identical to the in-process emulation
// (RunTwin), even when a worker process is SIGKILLed and restarted mid-run.
// See docs/CLUSTER.md for the process layout, the control endpoints, and
// the failure modes.
package harness

import (
	"fmt"
	"math/rand"

	"hermes/internal/tx"
	"hermes/internal/zipf"
)

// Workload kinds accepted by WorkloadSpec.Kind.
const (
	// WorkloadYCSB draws every key from a scrambled Zipfian over the whole
	// table (YCSB-style skewed access).
	WorkloadYCSB = "ycsb"
	// WorkloadHotspot draws keys from a two-sided Zipfian whose peak sweeps
	// linearly across the table over the course of the run (§5.2.2's
	// rotating hot spot), keyed on transaction index — not wall time — so
	// the stream is identical across runs and machines.
	WorkloadHotspot = "hotspot"
)

// WorkloadSpec describes a deterministic transaction stream. The whole
// stream is a pure function of the spec: the orchestrator sends it to the
// driver process and hands the same spec to the in-process twin, and both
// generate the identical sequence of procedures.
type WorkloadSpec struct {
	// Kind selects the key distribution (WorkloadYCSB or WorkloadHotspot).
	Kind string `json:"kind"`
	// Seed seeds the single sequential RNG the stream is drawn from.
	Seed int64 `json:"seed"`
	// Txns is the total number of transactions.
	Txns int `json:"txns"`
	// Rows is the key space (must match the seeded table).
	Rows uint64 `json:"rows"`
	// KeysPerTxn is how many distinct keys each transaction reads and
	// increments.
	KeysPerTxn int `json:"keys_per_txn"`
	// Payload is the written value size in bytes (minimum 8).
	Payload int `json:"payload"`
	// Theta is the Zipfian skew.
	Theta float64 `json:"theta"`
	// Window is the closed-loop in-flight cap. It must be at least the
	// sequencer batch size: the leader seals on size only (the flush
	// interval is effectively disabled for determinism), so a window
	// smaller than a batch could leave the leader waiting for requests the
	// driver is waiting to submit.
	Window int `json:"window"`
	// Sweeps is the number of full hot-spot rotations across the run
	// (WorkloadHotspot only; default 2).
	Sweeps int `json:"sweeps,omitempty"`
	// Skip is the number of leading stream transactions to generate —
	// consuming the RNG exactly as a full run would — but not return:
	// phase two of a multi-phase run sets Skip to phase one's Txns and
	// gets the precise continuation of the same stream. The hot-spot sweep
	// position is normalized over Skip+Txns, so a skipped suffix matches a
	// single full-length run; WorkloadYCSB phases compose exactly at any
	// split.
	Skip int `json:"skip,omitempty"`
}

// Validate checks the spec for the mistakes that would otherwise surface
// as a wedged run (window deadlock) or a digest mismatch (key space
// drift).
func (s *WorkloadSpec) Validate(batchSize int) error {
	switch s.Kind {
	case WorkloadYCSB, WorkloadHotspot:
	default:
		return fmt.Errorf("harness: unknown workload kind %q", s.Kind)
	}
	if s.Txns <= 0 || s.Rows == 0 || s.KeysPerTxn <= 0 {
		return fmt.Errorf("harness: workload needs txns, rows and keys per txn, got %d/%d/%d",
			s.Txns, s.Rows, s.KeysPerTxn)
	}
	if uint64(s.KeysPerTxn) > s.Rows {
		return fmt.Errorf("harness: %d distinct keys per txn exceed %d rows", s.KeysPerTxn, s.Rows)
	}
	if s.Window < batchSize {
		return fmt.Errorf("harness: window %d below batch size %d would deadlock the closed loop",
			s.Window, batchSize)
	}
	if s.Skip < 0 {
		return fmt.Errorf("harness: negative skip %d", s.Skip)
	}
	return nil
}

// Procs materializes the spec's transaction stream: Txns wire-safe
// read-modify-write increments over KeysPerTxn distinct keys each. A single
// seeded RNG consumed strictly sequentially makes the stream a pure
// function of the spec.
func (s *WorkloadSpec) Procs() ([]*tx.CounterProc, error) {
	if err := s.Validate(0); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var ycsb *zipf.Scrambled
	var hot *zipf.TwoSided
	var peak zipf.MovingPeak
	sweeps := s.Sweeps
	if sweeps <= 0 {
		sweeps = 2
	}
	switch s.Kind {
	case WorkloadYCSB:
		ycsb = zipf.NewScrambled(rng, s.Rows, s.Theta)
	case WorkloadHotspot:
		hot = zipf.NewTwoSided(rng, s.Rows, s.Theta)
		// One "second" of MovingPeak time per sweep; position i of Txns
		// maps to elapsed = sweeps * i/Txns.
		peak = zipf.MovingPeak{N: s.Rows, Period: 1}
	}
	total := s.Skip + s.Txns
	procs := make([]*tx.CounterProc, total)
	seen := make(map[uint64]bool, s.KeysPerTxn)
	for i := range procs {
		for k := range seen {
			delete(seen, k)
		}
		keys := make([]tx.Key, 0, s.KeysPerTxn)
		for len(keys) < s.KeysPerTxn {
			var row uint64
			switch s.Kind {
			case WorkloadYCSB:
				row = ycsb.Next()
			case WorkloadHotspot:
				elapsed := float64(sweeps) * float64(i) / float64(total)
				row = hot.Next(peak.At(elapsed))
			}
			if seen[row] {
				continue
			}
			seen[row] = true
			keys = append(keys, tx.MakeKey(0, row))
		}
		procs[i] = &tx.CounterProc{Reads: keys, Writes: keys, Payload: s.Payload}
	}
	return procs[s.Skip:], nil
}
