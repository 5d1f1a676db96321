package main

import (
	"math/rand"

	"hermes/internal/harness"
	"hermes/internal/tx"
	"hermes/internal/zipf"
)

// generator streams a workload's transactions one at a time, so a run never
// holds more than its in-flight window of procedures. The stream is a pure
// function of the constructor arguments.
type generator interface {
	next() *tx.CounterProc
}

// ycsbGen streams exactly the procedures harness.WorkloadSpec.Procs()
// materializes for a WorkloadYCSB spec: one sequential RNG, KeysPerTxn
// distinct scrambled-Zipfian rows per transaction. The cluster's driver
// process and RunTwin generate from the spec; the in-process workload
// generates from here, so the two runs execute the same transactions.
type ycsbGen struct {
	z       *zipf.Scrambled
	keys    int
	payload int
}

func newYCSBGen(spec harness.WorkloadSpec) *ycsbGen {
	rng := rand.New(rand.NewSource(spec.Seed))
	return &ycsbGen{
		z:       zipf.NewScrambled(rng, spec.Rows, spec.Theta),
		keys:    spec.KeysPerTxn,
		payload: spec.Payload,
	}
}

func (g *ycsbGen) next() *tx.CounterProc {
	keys := make([]tx.Key, 0, g.keys)
draw:
	for len(keys) < g.keys {
		k := tx.MakeKey(0, g.z.Next())
		for _, have := range keys {
			if have == k {
				continue draw
			}
		}
		keys = append(keys, k)
	}
	return &tx.CounterProc{Reads: keys, Writes: keys, Payload: g.payload}
}

// Hot-key trace shape (cmd/hermes-bench's execbench trace, streamed): each
// node's range contributes hotPerNode hot rows — several independent serial
// dependency chains per node — and hotFraction of the transactions
// increment one of them; the rest increment one cold row on each of two
// different nodes.
const (
	hotPerNode  = 8
	hotFraction = 0.98
)

type hotKeyGen struct {
	rng   *rand.Rand
	nodes int
	span  uint64
	hot   []tx.Key
}

func newHotKeyGen(seed int64, nodes int, rows uint64) *hotKeyGen {
	g := &hotKeyGen{rng: rand.New(rand.NewSource(seed)), nodes: nodes, span: rows / uint64(nodes)}
	for i := 0; i < nodes; i++ {
		for j := 0; j < hotPerNode; j++ {
			g.hot = append(g.hot, tx.MakeKey(0, uint64(i)*g.span+uint64(j)*(g.span/hotPerNode)))
		}
	}
	return g
}

func (g *hotKeyGen) next() *tx.CounterProc {
	if g.rng.Float64() < hotFraction {
		k := []tx.Key{g.hot[g.rng.Intn(len(g.hot))]}
		return &tx.CounterProc{Reads: k, Writes: k, Payload: 8}
	}
	n1 := g.rng.Intn(g.nodes)
	n2 := (n1 + 1 + g.rng.Intn(g.nodes-1)) % g.nodes
	ks := []tx.Key{g.coldRow(n1), g.coldRow(n2)}
	return &tx.CounterProc{Reads: ks, Writes: ks, Payload: 8}
}

// coldRow draws a non-first row of node n's range (row 0 of a range is hot).
func (g *hotKeyGen) coldRow(n int) tx.Key {
	return tx.MakeKey(0, uint64(n)*g.span+1+uint64(g.rng.Int63n(int64(g.span-1))))
}
