package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hermes/internal/network"
	"hermes/internal/sequencer"
	"hermes/internal/tx"
)

// newFailoverCluster builds a reliable cluster with sequencer standbys and
// tight fault-tolerance timers, sealed by size only — the configuration
// under which a leader kill is survivable and byte-comparable with an
// uninterrupted run.
func newFailoverCluster(t *testing.T, nodes, standbys int, pf PolicyFactory) *Cluster {
	t.Helper()
	ids := make([]tx.NodeID, nodes)
	for i := range ids {
		ids[i] = tx.NodeID(i)
	}
	c, err := New(Config{
		Nodes:  ids,
		Policy: pf,
		Seq: sequencer.Config{
			BatchSize: 4,
			Standbys:  standbys,
		},
		Reliable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// failoverWorkload mirrors crashWorkload but kills the sequencer leader
// (not a worker) mid-stream when kill is true: submissions keep flowing
// through the session front-end, the standby promotes itself, and the
// killed replica is restarted as a standby of the new epoch.
func failoverWorkload(t *testing.T, c *Cluster, txns int, kill bool) {
	t.Helper()
	cp, err := c.Checkpoint(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dones := make([]<-chan struct{}, 0, txns)
	for i := 0; i < txns; i++ {
		k1 := tx.MakeKey(0, uint64(i*3%testRows))
		k2 := tx.MakeKey(0, uint64(i*7%testRows))
		done, err := c.Submit(0, incProc(k1, k2))
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
		if kill && i == txns/2 {
			trigger := cp.Seq + 3
			deadline := time.Now().Add(30 * time.Second)
			for c.Node(0).Scheduled() < trigger {
				if time.Now().After(deadline) {
					t.Fatal("node 0 never reached the kill trigger")
				}
				time.Sleep(200 * time.Microsecond)
			}
			if err := c.CrashLeader(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
			if err := c.RestartLeader(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, done := range dones {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("transaction %d never completed", i)
		}
	}
	mustDrain(t, c, 30*time.Second)
}

// TestLeaderFailoverMatchesUninterrupted is the tentpole claim: killing
// the total-order leader mid-run — standby promotion, front-end redirect
// with dedup, replica restart — leaves every node byte-identical to a run
// whose leader never died, with every transaction sequenced exactly once.
func TestLeaderFailoverMatchesUninterrupted(t *testing.T) {
	const txns = 40
	for _, name := range []string{"hermes", "calvin", "tpart"} {
		t.Run(name, func(t *testing.T) {
			pf := policies(3)[name]

			ref := newFailoverCluster(t, 3, 2, pf)
			loadCounters(ref, testRows)
			failoverWorkload(t, ref, txns, false)
			want := ref.NodeDigests()
			wantCommitted := ref.Collector().Committed()

			c := newFailoverCluster(t, 3, 2, pf)
			loadCounters(c, testRows)
			failoverWorkload(t, c, txns, true)
			got := c.NodeDigests()
			if len(got) != len(want) {
				t.Fatalf("digest count %d != %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("node %d diverged after leader failover:\n got %+v\nwant %+v",
						want[i].Node, got[i], want[i])
				}
			}
			// Exactly-once: a lost submission would commit fewer, a
			// double-sequenced one more.
			if gotCommitted := c.Collector().Committed(); gotCommitted != wantCommitted {
				t.Errorf("committed %d != uninterrupted %d", gotCommitted, wantCommitted)
			}
			if c.SeqFailovers() < 1 {
				t.Error("failover counter never advanced")
			}
			if c.SeqEpoch() < 1 {
				t.Error("epoch never advanced past 0")
			}
			if c.SeqLeader() == LeaderNode {
				t.Error("leadership failed back to the killed replica")
			}
			if ref.SeqFailovers() != 0 || ref.SeqEpoch() != 0 {
				t.Errorf("uninterrupted run recorded failovers=%d epoch=%d",
					ref.SeqFailovers(), ref.SeqEpoch())
			}
		})
	}
}

// TestLeaderFailoverBackToBack kills the promoted leader too: with two
// standbys the group survives a second failover (epoch 2) and the twice-
// restarted replicas line back up in the promotion order.
func TestLeaderFailoverBackToBack(t *testing.T) {
	c := newFailoverCluster(t, 3, 2, policies(3)["hermes"])
	loadCounters(c, testRows)
	if _, err := c.Checkpoint(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	submit := func(base int) {
		t.Helper()
		// Async submissions + drain: the drain loop force-flushes the
		// sealer, so the count need not divide the batch size.
		for i := 0; i < 8; i++ {
			if _, err := c.Submit(0, incProc(tx.MakeKey(0, uint64(base+i)))); err != nil {
				t.Fatal(err)
			}
		}
		mustDrain(t, c, 30*time.Second)
	}
	for round := 0; round < 2; round++ {
		submit(round * 8)
		if err := c.CrashLeader(); err != nil {
			t.Fatal(err)
		}
		if err := c.RestartLeader(); err != nil {
			t.Fatal(err)
		}
	}
	submit(100)
	if got := c.SeqEpoch(); got != 2 {
		t.Errorf("epoch = %d, want 2", got)
	}
	if got := c.SeqFailovers(); got != 2 {
		t.Errorf("failovers = %d, want 2", got)
	}
	var sum uint64
	for i := 0; i < testRows; i++ {
		v, _ := c.ReadRecord(tx.MakeKey(0, uint64(i)))
		sum += counterVal(v)
	}
	if sum != 24 {
		t.Errorf("committed increments = %d, want 24 (lost or duplicated submissions)", sum)
	}
}

// TestLeaderFailoverKeepsSealedCount pins the group's sealed-batch count
// (hermes_seq_batches_total) across two leader kills: it never goes down,
// it holds its value while no leader is live instead of reading 0, and
// once each round drains it equals the sealed sequence count, with every
// submitted transaction counted once.
func TestLeaderFailoverKeepsSealedCount(t *testing.T) {
	c := newFailoverCluster(t, 3, 2, policies(3)["hermes"])
	loadCounters(c, testRows)
	if _, err := c.Checkpoint(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	var last int64
	monotone := func(when string) sequencer.LeaderStats {
		t.Helper()
		st := c.SeqStats()
		if st.Batches < last {
			t.Fatalf("%s: sealed batches went down %d -> %d", when, last, st.Batches)
		}
		last = st.Batches
		return st
	}
	submitted := 0
	round := func(when string) {
		t.Helper()
		for i := 0; i < 10; i++ {
			if _, err := c.Submit(0, incProc(tx.MakeKey(0, uint64(submitted%testRows)))); err != nil {
				t.Fatal(err)
			}
			submitted++
		}
		mustDrain(t, c, 30*time.Second)
		st := monotone(when)
		if seq, _ := c.seq.Next(); st.Batches != int64(seq) {
			t.Errorf("%s: %d sealed batches counted, sealed sequence count %d", when, st.Batches, seq)
		}
		if st.Txns != int64(submitted) {
			t.Errorf("%s: %d sealed transactions counted, %d submitted", when, st.Txns, submitted)
		}
	}
	round("before any kill")
	for kill := 1; kill <= 2; kill++ {
		if err := c.CrashLeader(); err != nil {
			t.Fatal(err)
		}
		monotone(fmt.Sprintf("leader %d down", kill))
		if err := c.RestartLeader(); err != nil {
			t.Fatal(err)
		}
		round(fmt.Sprintf("after failover %d", kill))
	}
	if got := c.SeqFailovers(); got != 2 {
		t.Errorf("failovers = %d, want 2", got)
	}
}

// TestLeaderCrashValidation pins the error surface around sequencer
// replica ids: the worker crash API must point at CrashLeader/
// RestartLeader instead of failing with "unknown node -64", and
// CrashLeader itself must spell out its preconditions.
func TestLeaderCrashValidation(t *testing.T) {
	// No standbys: the leader is not survivable.
	c := newReliableCluster(t, 2, policies(2)["hermes"])
	loadCounters(c, testRows)
	if _, err := c.Checkpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	err := c.CrashNode(LeaderNode)
	if err == nil {
		t.Fatal("CrashNode(LeaderNode) accepted")
	}
	if !strings.Contains(err.Error(), "CrashLeader") {
		t.Errorf("CrashNode(LeaderNode) error %q does not point at CrashLeader", err)
	}
	err = c.RestartNode(LeaderNode)
	if err == nil {
		t.Fatal("RestartNode(LeaderNode) accepted")
	}
	if !strings.Contains(err.Error(), "RestartLeader") {
		t.Errorf("RestartNode(LeaderNode) error %q does not point at RestartLeader", err)
	}
	err = c.CrashLeader()
	if err == nil {
		t.Fatal("CrashLeader without standbys accepted")
	}
	if !strings.Contains(err.Error(), "Standbys") {
		t.Errorf("CrashLeader error %q does not mention Config.Standbys", err)
	}
	if err := c.RestartLeader(); err == nil {
		t.Fatal("RestartLeader with nothing crashed accepted")
	}

	// With standbys: standby replica ids are fenced off from the worker
	// API too, and the crash preconditions still hold.
	f := newFailoverCluster(t, 2, 1, policies(2)["hermes"])
	loadCounters(f, testRows)
	if err := f.CrashLeader(); err == nil {
		t.Fatal("CrashLeader without a prior checkpoint accepted")
	}
	if _, err := f.Checkpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	standby := sequencer.SeqNode(LeaderNode, 1)
	if err := f.CrashNode(standby); err == nil ||
		!strings.Contains(err.Error(), "CrashLeader") {
		t.Errorf("CrashNode(standby) = %v, want pointer at CrashLeader", err)
	}
	if err := f.CrashLeader(); err != nil {
		t.Fatal(err)
	}
	if err := f.CrashLeader(); err == nil {
		t.Fatal("double CrashLeader accepted")
	}
	if err := f.RestartLeader(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainDetailNamesStuckNode pins the drain diagnostic: when the
// cluster cannot quiesce because a node stopped consuming, the timeout
// error names the node and the sequence it is stuck behind.
func TestDrainDetailNamesStuckNode(t *testing.T) {
	c := newReliableCluster(t, 2, policies(2)["hermes"])
	loadCounters(c, testRows)
	if _, err := c.Checkpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashNode(1); err != nil {
		t.Fatal(err)
	}
	// Four submissions seal a batch the dead node will never schedule.
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(0, incProc(tx.MakeKey(0, uint64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	err := c.DrainDetail(150 * time.Millisecond)
	if err == nil {
		t.Fatal("drain succeeded with a dead node and traffic in flight")
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Errorf("drain error %q does not name the stuck node", err)
	}
	if !strings.Contains(err.Error(), "stuck at batch") && !strings.Contains(err.Error(), "in flight") {
		t.Errorf("drain error %q does not say what it is stuck behind", err)
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 30*time.Second)
}

// dropDeliver loses one sealed batch on its way to one node — the effect a
// reordering total-order layer has on a node that refuses the overtaking
// batch and never sees the overtaken one again.
type dropDeliver struct {
	network.Transport
	to  tx.NodeID
	seq uint64
}

func (d dropDeliver) Send(m network.Message) error {
	if m.Type == network.MsgSeqDeliver && m.To == d.to && m.Seq == d.seq {
		return nil
	}
	return d.Transport.Send(m)
}

// TestDrainDetailNamesRefusedBatch pins the loud half of the ordering
// contract: a node that is handed a batch beyond the one it wants says so
// in the drain diagnosis, ahead of the generic "stuck at batch", while a
// re-delivered batch it already holds stays silent.
func TestDrainDetailNamesRefusedBatch(t *testing.T) {
	c, err := New(Config{
		Nodes:  []tx.NodeID{0, 1},
		Policy: policies(2)["hermes"],
		Seq:    sequencer.Config{BatchSize: 8, Interval: time.Millisecond},
		WrapTransport: func(tr network.Transport) network.Transport {
			return dropDeliver{Transport: tr, to: 0, seq: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	loadCounters(c, testRows)
	// A checkpoint at the start keeps the sealed log from batch 0 on.
	if _, err := c.Checkpoint(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	submit := func() {
		t.Helper()
		if _, err := c.Submit(1, incProc(tx.MakeKey(0, 1))); err != nil {
			t.Fatal(err)
		}
	}
	submit()
	mustDrain(t, c, 10*time.Second) // batch 0 everywhere

	if err := c.tr.Send(network.Message{From: LeaderNode, To: 0, Type: network.MsgSeqDeliver,
		Batch: c.TailSince(0)[0]}); err != nil {
		t.Fatal(err)
	}
	submit() // batch 1: lost on the way to node 0
	if err := c.DrainDetail(100 * time.Millisecond); err == nil {
		t.Fatal("drain succeeded although node 0 never received batch 1")
	} else if strings.Contains(err.Error(), "refused") {
		t.Fatalf("re-delivery of batch 0 was reported as a refusal: %v", err)
	}
	submit() // batch 2: arrives at node 0 while it wants batch 1
	err = c.DrainDetail(150 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "node 0 refused batch 2, wanted 1") {
		t.Fatalf("drain error %v does not name the refused batch", err)
	}
}
