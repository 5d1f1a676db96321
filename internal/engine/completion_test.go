package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/network"
	"hermes/internal/router"
	"hermes/internal/sequencer"
	"hermes/internal/tx"
)

// reversed hands a segment's routes back in descending transaction-ID
// order — the strongest reordering a policy such as Hermes may apply to a
// batch — after running hook (if set) on the scheduler goroutine, between
// the batch's arrival and its first admission in either execution mode.
type reversed struct {
	router.Policy
	hook func(txns []*tx.Request)
}

func (p reversed) RouteUser(txns []*tx.Request) []*router.Route {
	if p.hook != nil {
		p.hook(txns)
	}
	rs := p.Policy.RouteUser(txns)
	for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
		rs[i], rs[j] = rs[j], rs[i]
	}
	return rs
}

// released reports whether done closes within five seconds. It is safe off
// the test goroutine.
func released(t *testing.T, done <-chan struct{}, txn int) bool {
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		t.Errorf("client of transaction %d was never released: its completion was lost", txn)
		return false
	}
}

func waitersLeft(c *Cluster) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// TestCompletionNoticesOnReorderedBatch pins the completion protocol on a
// batch the policy schedules in descending ID order, in both execution
// modes and both assemblies. The committer's answer may arrive before the
// submitting node has seen the batch (early), while its scheduler is inside
// the batch (racing), or twice (duplicate); every client must be released
// exactly once and no waiter may be left behind.
func TestCompletionNoticesOnReorderedBatch(t *testing.T) {
	for _, mode := range []string{ExecModeLock, ExecModeQueue} {
		t.Run(mode+"/worker", func(t *testing.T) { completionOnWorker(t, mode) })
		t.Run(mode+"/emulation", func(t *testing.T) { completionOnEmulation(t, mode) })
	}
}

// completionOnWorker: worker 0 of two, no leader process — the test plays
// the leader (it delivers the sealed batch) and worker 1 (it sends the
// MsgTxnDone notices), both over the worker's own transport.
func completionOnWorker(t *testing.T, mode string) {
	tr := network.NewChanTransport([]tx.NodeID{0, 1, LeaderNode}, nil)
	notice := func(i int) {
		if err := tr.Send(network.Message{
			From: 1, To: 0, Type: network.MsgTxnDone, Txn: tx.TxnID(i), Seq: uint64(i),
		}); err != nil {
			t.Error(err)
		}
	}
	var dones []<-chan struct{}
	base := policies(2)["calvin"]
	c, err := NewWorker(WorkerConfig{
		Self: 0, Workers: []tx.NodeID{0, 1}, Transport: tr, NetStats: tr.Stats(), ExecMode: mode,
		Policy: func(a []tx.NodeID) router.Policy {
			return reversed{Policy: base(a), hook: func([]*tx.Request) {
				notice(1) // racing: the scheduler holds the batch, nothing is admitted yet
				released(t, dones[0], 1)
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.StartWorker()

	// Transactions 1-3 touch only worker 1's rows, so this worker waits for
	// the remote committer's notice; transaction 4 is local.
	local, remote := tx.MakeKey(0, 1), tx.MakeKey(0, testRows-1)
	batch := &tx.Batch{}
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
		req.Client, req.ClientSeq = 0, uint64(i) // the front-end's i-th stamp
		batch.Txns = append(batch.Txns, req)
	}

	// Duplicate, then early: the sealed batch has not reached this worker.
	// One link delivers in order, so once 2's client is released both of 3's
	// notices have been handled.
	notice(3)
	notice(3)
	notice(2)
	ok := released(t, dones[1], 2) && released(t, dones[2], 3)
	if err := tr.Send(network.Message{From: LeaderNode, To: 0, Type: network.MsgSeqDeliver, Batch: batch}); err != nil {
		t.Fatal(err)
	}
	if ok = released(t, dones[0], 1) && released(t, dones[3], 4) && ok; !ok {
		t.FailNow()
	}
	if n := waitersLeft(c); n != 0 {
		t.Fatalf("%d waiters left behind", n)
	}
	if u := c.WorkerQuiesce().Unacked; u != 0 {
		t.Fatalf("the sealed batch left %d submissions unacknowledged at the front-end", u)
	}
}

// completionOnEmulation: three nodes, real sequencer. Transactions 1-3 are
// submitted through node 0 and commit on node 1 — a remote committer —
// while node 0's scheduler is held inside the batch until their clients
// have been released: the answer needs nothing from the submitting node's
// scheduler. Executing them again afterwards (what a replaying node does)
// answers again, and must change nothing.
func completionOnEmulation(t *testing.T, mode string) {
	var dones [4]<-chan struct{} // an array: the hook reads 0-2 while the test stores 3
	var sealed []*tx.Request
	base := policies(3)["calvin"]
	first := true
	c, err := New(Config{
		Nodes:    []tx.NodeID{0, 1, 2},
		Seq:      sequencer.Config{BatchSize: 4, Interval: time.Hour},
		ExecMode: mode,
		Policy: func(a []tx.NodeID) router.Policy {
			p := reversed{Policy: base(a)}
			if first { // node 0's replica
				first = false
				p.hook = func(txns []*tx.Request) {
					sealed = txns
					for i := 1; i <= 3; i++ {
						released(t, dones[i-1], i)
					}
				}
			}
			return p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	loadCounters(c, testRows)

	local, remote := tx.MakeKey(0, 1), tx.MakeKey(0, testRows/2)
	for i := 1; i <= 4; i++ {
		k := remote
		if i == 4 {
			k = local
		}
		done, err := c.Submit(0, &tx.CounterProc{Reads: []tx.Key{k}, Writes: []tx.Key{k}})
		if err != nil {
			t.Fatal(err)
		}
		dones[i-1] = done
	}
	mustDrain(t, c, 10*time.Second)
	for i, done := range dones {
		if !released(t, done, i+1) {
			t.FailNow()
		}
	}
	for _, req := range sealed {
		c.node(1).answer(req)
	}
	if n := waitersLeft(c); n != 0 {
		t.Fatalf("%d waiters left behind", n)
	}
}

// TestConcurrentSubmitsThroughOnePlainFrontend: a plain front-end stamps
// under a lock it holds across its send, so 64 goroutines submitting through
// it reach the leader in stamp order and the leader — which drops a request
// whose ClientSeq is not above the client's last — seals every one of them.
func TestConcurrentSubmitsThroughOnePlainFrontend(t *testing.T) {
	c := newTestCluster(t, 2, policies(2)["calvin"])
	loadCounters(c, testRows)
	const clients, each = 64, 8
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.SubmitAndWait(0, incProc(tx.MakeKey(0, uint64((g*each+i)%testRows)))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("submissions never completed: the leader sealed %d of %d (one dropped as an out-of-order duplicate?)",
			c.SeqStats().Txns, clients*each)
	}
	mustDrain(t, c, 10*time.Second)
	if got := c.SeqStats().Txns; got != clients*each {
		t.Fatalf("leader sealed %d transactions, want %d", got, clients*each)
	}
	if n := waitersLeft(c); n != 0 {
		t.Fatalf("%d waiters left behind", n)
	}
}

func newTestWorker(t *testing.T) (*Cluster, *network.ChanTransport) {
	t.Helper()
	tr := network.NewChanTransport([]tx.NodeID{0, 1, LeaderNode}, nil)
	c, err := NewWorker(WorkerConfig{
		Self: 0, Workers: []tx.NodeID{0, 1},
		Transport: tr, NetStats: tr.Stats(), Policy: policies(2)["calvin"],
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.StartWorker()
	return c, tr
}

// TestSubmitAfterStopFails: in either assembly a stopped cluster turns a
// submission away and keeps no waiter for it.
func TestSubmitAfterStopFails(t *testing.T) {
	worker, _ := newTestWorker(t)
	for name, c := range map[string]*Cluster{
		"emulation": newTestCluster(t, 2, policies(2)["calvin"]),
		"worker":    worker,
	} {
		c.Stop()
		k := tx.MakeKey(0, 1)
		if _, err := c.Submit(0, &tx.CounterProc{Reads: []tx.Key{k}, Writes: []tx.Key{k}}); err == nil {
			t.Errorf("%s: submit after stop succeeded", name)
		}
		if n := waitersLeft(c); n != 0 {
			t.Errorf("%s: the refused submission left %d waiters behind", name, n)
		}
	}
}

// TestWorkerRefusesProceduresWithoutWireForm: a worker must turn away a
// procedure the codec has no tag for — one whose behaviour is a closure —
// at submit, naming the Go type, before anything is queued for the
// sequencer. Encoding it later would be an error on every hop; gob, which
// the codec replaced, would have dropped the closure silently.
func TestWorkerRefusesProceduresWithoutWireForm(t *testing.T) {
	c, tr := newTestWorker(t)
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
	if n := waitersLeft(c); n != 0 {
		t.Fatalf("%d refused submissions left a waiter behind", n)
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
