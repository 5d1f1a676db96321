package storage_test

import (
	"testing"
	"time"

	"hermes/internal/network"
	"hermes/internal/sequencer"
	"hermes/internal/tx"
)

// The command log of §4.3 — the totally ordered input a recovery replays
// on top of a checkpointed Store — is the sequencer group's sealed log. A
// group without standbys keeps it only from a checkpoint on (KeepLog);
// Since reads it and a checkpoint's Prune truncates it. These tests pin
// that contract with batches of one request each.

const seqID = tx.NodeID(100)

// sealedLog starts an unreplicated group delivering to node 0, keeps its
// log as a checkpoint at sequence 0 would, and seals n batches. seal
// seals one more and returns it once node 0 has received it.
func sealedLog(t *testing.T, n int) (g *sequencer.Group, seal func() *tx.Batch) {
	t.Helper()
	tr := network.NewChanTransport([]tx.NodeID{0, seqID}, nil)
	g = sequencer.NewGroup(seqID, tr, []tx.NodeID{0}, sequencer.Config{BatchSize: 1})
	g.Start()
	t.Cleanup(func() { g.Stop(); tr.Close() })
	g.KeepLog()
	fe := sequencer.NewFrontend(0, seqID, tr)
	seal = func() *tx.Batch {
		t.Helper()
		req := tx.NewRequest(0, &tx.CounterProc{Reads: []tx.Key{1}, Writes: []tx.Key{1}})
		if err := fe.Submit(req); err != nil {
			t.Fatal(err)
		}
		deadline := time.After(5 * time.Second)
		for {
			select {
			case m := <-tr.Recv(0):
				if m.Type == network.MsgSeqDeliver {
					return m.Batch
				}
			case <-deadline:
				t.Fatal("no batch delivered")
				return nil
			}
		}
	}
	for i := 0; i < n; i++ {
		if b := seal(); b.Seq != uint64(i) {
			t.Fatalf("batch %d sealed as sequence %d", i, b.Seq)
		}
	}
	return g, seal
}

func TestCommandLogSince(t *testing.T) {
	g, _ := sealedLog(t, 10)
	got := g.Since(7)
	if len(got) != 3 || got[0].Seq != 7 || got[2].Seq != 9 {
		t.Fatalf("Since(7) = %d entries, want batches 7..9", len(got))
	}
	if got := g.Since(100); got != nil {
		t.Fatalf("Since past end = %v, want nil", got)
	}
	if got := g.Since(0); len(got) != 10 {
		t.Fatalf("Since(0) = %d entries, want 10", len(got))
	}
}

func TestCommandLogTruncate(t *testing.T) {
	g, seal := sealedLog(t, 10)
	g.Prune(5)
	got := g.Since(0)
	if len(got) != 5 {
		t.Fatalf("%d batches retained after Prune(5), want 5", len(got))
	}
	if got[0].Seq != 5 {
		t.Fatalf("first retained seq = %d, want 5", got[0].Seq)
	}
	// Sealing continues from the retained tail.
	if b := seal(); b.Seq != 10 {
		t.Fatalf("next batch sealed as sequence %d, want 10", b.Seq)
	}
	if got := g.Since(0); len(got) != 6 || got[5].Seq != 10 {
		t.Fatalf("Since(0) after sealing = %d entries, want batches 5..10", len(got))
	}
	g.Prune(100)
	if got := g.Since(0); len(got) != 0 {
		t.Fatalf("%d batches retained after over-prune, want 0", len(got))
	}
}
