package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hermes/internal/lock"
	"hermes/internal/network"
	"hermes/internal/router"
	"hermes/internal/tx"
)

// reversed hands a segment's routes back in descending transaction-ID
// order — the strongest reordering a policy such as Hermes may apply to a
// batch.
type reversed struct{ router.Policy }

func (p reversed) RouteUser(txns []*tx.Request) []*router.Route {
	rs := p.Policy.RouteUser(txns)
	for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
		rs[i], rs[j] = rs[j], rs[i]
	}
	return rs
}

// acquireHook runs fn inside the scheduler, just before each admission.
type acquireHook struct {
	lock.Granter
	fn func(tx.TxnID)
}

func (h acquireHook) Acquire(id tx.TxnID, shared, excl []tx.Key) lock.Granted {
	h.fn(id)
	return h.Granter.Acquire(id, shared, excl)
}

// TestCompletionNoticesOnReorderedBatch pins the early-versus-duplicate
// rule for MsgTxnDone on a distributed worker whose policy schedules a
// batch in descending ID order. A notice may arrive before the batch
// (early), while the scheduler is between two of its routes (racing), or
// twice (duplicate); every client must be released exactly once.
func TestCompletionNoticesOnReorderedBatch(t *testing.T) {
	tr := network.NewChanTransport([]tx.NodeID{0, 1, LeaderNode}, nil)
	base := policies(2)["calvin"]
	c, err := NewWorker(WorkerConfig{
		Self: 0, Workers: []tx.NodeID{0, 1}, Leader: LeaderNode,
		Transport: tr, NetStats: tr.Stats(),
		Policy: func(a []tx.NodeID) router.Policy { return reversed{base(a)} },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	// Transactions 1-3 touch only node 1's rows, so this worker waits for
	// the remote committer's notice; transaction 4 is local, and — being
	// scheduled first — is the scheduler's first admission.
	local, remote := tx.MakeKey(0, 1), tx.MakeKey(0, testRows-1)
	n := c.node(0)
	n.locks = acquireHook{Granter: n.locks, fn: func(id tx.TxnID) {
		if id == 4 {
			c.complete(1) // racing: 4 is registered, 1 is not scheduled yet
		}
	}}
	c.StartWorker()

	batch := &tx.Batch{}
	var dones []<-chan struct{}
	for i := 1; i <= 4; i++ {
		k := remote
		if i == 4 {
			k = local
		}
		proc := &tx.CounterProc{Reads: []tx.Key{k}, Writes: []tx.Key{k}}
		done, err := c.Submit(0, proc)
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
		req := tx.NewRequest(tx.TxnID(i), proc)
		req.Client, req.ClientSeq = 0, uint64(i)
		batch.Txns = append(batch.Txns, req)
	}

	c.complete(2) // early: the sealed batch has not reached this worker
	n.batches <- batch
	waitDone := func(i int) {
		t.Helper()
		select {
		case <-dones[i-1]:
		case <-time.After(5 * time.Second):
			t.Fatalf("client of transaction %d was never released: its completion notice was lost", i)
		}
	}
	waitDone(1)
	waitDone(2)
	waitDone(4)
	c.complete(3)
	c.complete(3) // duplicate: at-least-once delivery
	waitDone(3)

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending)+len(c.seqWaiters)+len(c.earlyDone) != 0 {
		t.Fatalf("completion state not empty: pending=%v seqWaiters=%v earlyDone=%v",
			c.pending, c.seqWaiters, c.earlyDone)
	}
}

// TestWorkerRefusesProceduresWithoutWireForm: a distributed worker must
// turn away a procedure the codec has no tag for — one whose behaviour is a
// closure — at submit, naming the Go type, before anything is queued for
// the sequencer. Encoding it later would be an error on every hop; gob,
// which the codec replaced, would have dropped the closure silently.
func TestWorkerRefusesProceduresWithoutWireForm(t *testing.T) {
	tr := network.NewChanTransport([]tx.NodeID{0, 1, LeaderNode}, nil)
	c, err := NewWorker(WorkerConfig{
		Self: 0, Workers: []tx.NodeID{0, 1}, Leader: LeaderNode,
		Transport: tr, NetStats: tr.Stats(), Policy: policies(2)["calvin"],
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.StartWorker()

	k := tx.MakeKey(0, 1)
	for _, proc := range []tx.Procedure{
		&tx.OpProc{Reads: []tx.Key{k}, Writes: []tx.Key{k}, Mutate: func(_ tx.Key, cur []byte) []byte { return cur }},
		&tx.FuncProc{Writes: []tx.Key{k}, Fn: func(tx.ExecCtx) {}},
	} {
		name := fmt.Sprintf("%T", proc)
		if _, err := c.Submit(0, proc); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Submit(%s) = %v, want a refusal naming the type", name, err)
		}
	}
	c.mu.Lock()
	queued := len(c.seqWaiters) + len(c.pending)
	c.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d refused submissions left a waiter behind", queued)
	}
	select {
	case m := <-tr.Recv(LeaderNode):
		t.Fatalf("a refused submission reached the leader: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	// A procedure with a tag still goes through.
	if _, err := c.Submit(0, &tx.CounterProc{Reads: []tx.Key{k}, Writes: []tx.Key{k}}); err != nil {
		t.Fatalf("CounterProc refused: %v", err)
	}
}
