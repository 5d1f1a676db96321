package engine

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/network"
	"hermes/internal/qexec"
	"hermes/internal/sequencer"
	"hermes/internal/tx"
)

// mailKeys snapshots n's mailboxes: the keys each transaction's holds.
func mailKeys(n *Node) map[tx.TxnID][]tx.Key {
	n.mailMu.Lock()
	defer n.mailMu.Unlock()
	out := make(map[tx.TxnID][]tx.Key, len(n.mail))
	for id, mb := range n.mail {
		mb.mu.Lock()
		ks := make([]tx.Key, 0, len(mb.recs))
		for _, r := range mb.recs {
			ks = append(ks, r.Key)
		}
		mb.mu.Unlock()
		slices.Sort(ks)
		out[id] = ks
	}
	return out
}

// waitMail polls until n holds a mailbox for id, and returns the snapshot.
func waitMail(t *testing.T, n *Node, id tx.TxnID) map[tx.TxnID][]tx.Key {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mail := mailKeys(n)
		if _, ok := mail[id]; ok {
			return mail
		}
		if time.Now().After(deadline) {
			t.Fatalf("no mailbox for transaction %d: %v", id, mail)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTaggedPushFillsEachMailbox: a push that carries records of several
// transactions lands each record in its own transaction's mailbox, and an
// untagged push still fills the one its Txn names.
func TestTaggedPushFillsEachMailbox(t *testing.T) {
	c, tr := newTestWorker(t)
	for _, m := range []network.Message{
		{From: 1, To: 0, Type: network.MsgRecordPush, Records: []network.Record{
			{Key: 1, Txn: 100}, {Key: 2, Txn: 100}, {Key: 3, Txn: 101}, {Key: 4, Txn: 100},
		}},
		{From: 1, To: 0, Type: network.MsgRecordPush, Txn: 102, Records: []network.Record{{Key: 5}}},
	} {
		if err := tr.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	got := waitMail(t, c.node(0), 102)
	want := map[tx.TxnID][]tx.Key{100: {1, 2, 4}, 101: {3}, 102: {5}}
	if len(got) != len(want) {
		t.Fatalf("mailboxes %v, want %v", got, want)
	}
	for id, ks := range want {
		if !slices.Equal(got[id], ks) {
			t.Fatalf("mailboxes %v, want %v", got, want)
		}
	}
}

// TestReplayedPushForFinishedTxnLeavesNoMailbox: a restarted sender
// replays its pushes under a new incarnation, so a push can arrive for a
// transaction this node has admitted and finished. It must be dropped, not
// filed in a mailbox that nothing will ever collect.
func TestReplayedPushForFinishedTxnLeavesNoMailbox(t *testing.T) {
	c := newTestCluster(t, 3, policies(3)["calvin"])
	loadCounters(c, testRows)
	if err := c.SubmitAndWait(0, incProc(tx.MakeKey(0, 1), tx.MakeKey(0, 150))); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, c, 10*time.Second)
	// Transaction 1 is finished everywhere. One link delivers in order, so
	// once the mailbox of the not-yet-admitted transaction 1<<40 exists,
	// the replayed push ahead of it has been handled.
	const future = tx.TxnID(1) << 40
	for _, m := range []network.Message{
		{From: 1, To: 0, Type: network.MsgRecordPush, Txn: 1, Records: []network.Record{{Key: tx.MakeKey(0, 150)}}},
		{From: 1, To: 0, Type: network.MsgRecordPush, Txn: future, Records: []network.Record{{Key: tx.MakeKey(0, 150)}}},
	} {
		if err := c.tr.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if mail := waitMail(t, c.node(0), future); len(mail) != 1 {
		t.Fatalf("mailboxes %v after a replayed push for finished transaction 1, want only %d's", mail, future)
	}
}

// TestOutboxEmptyAfterEveryChunk runs a cross-node workload on one bucket
// worker per node and checks, at the end of every chunk, that the chunk's
// flush left the outbox empty: no push waits for a later chunk, so a
// quiescent node holds no hidden sends. Pushes for several transactions
// do share a frame, with each record tagged.
func TestOutboxEmptyAfterEveryChunk(t *testing.T) {
	var tagged atomic.Int64
	c, err := build(Config{
		Nodes:     []tx.NodeID{0, 1, 2},
		Policy:    policies(3)["hermes"],
		Seq:       sequencer.Config{BatchSize: 16, Interval: 2 * time.Millisecond},
		Executors: 1,
		WrapTransport: func(inner network.Transport) network.Transport {
			return countTagged{Transport: inner, tagged: &tagged}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var chunks, leftovers atomic.Int64
	for _, n := range c.nodeList() {
		n.qx = qexec.New(qexec.Config{Workers: 1, AfterChunk: func() {
			n.flushPushes()
			chunks.Add(1)
			if len(n.out.take()) != 0 {
				leftovers.Add(1)
			}
		}})
	}
	c.startAll()
	t.Cleanup(c.Stop)
	loadCounters(c, testRows)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				a, b := tx.MakeKey(0, uint64((g*40+i)%testRows)), tx.MakeKey(0, uint64((g*40+i*7+100)%testRows))
				if err := c.SubmitAndWait(tx.NodeID(g%3), incProc(a, b)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	mustDrain(t, c, 10*time.Second)
	if chunks.Load() == 0 || leftovers.Load() != 0 {
		t.Fatalf("%d of %d chunks ended with pushes left in the outbox", leftovers.Load(), chunks.Load())
	}
	if tagged.Load() == 0 {
		t.Fatal("no push carried records of more than one transaction")
	}
}

// countTagged counts record pushes whose records are tagged with their
// transactions.
type countTagged struct {
	network.Transport
	tagged *atomic.Int64
}

func (c countTagged) Send(m network.Message) error {
	if m.Type == network.MsgRecordPush && len(m.Records) > 0 && m.Records[0].Txn != 0 {
		c.tagged.Add(1)
	}
	return c.Transport.Send(m)
}

// TestTxnDoneOncePerBatchAndClient: worker 1 commits every transaction of
// two batches, most of them for clients behind node 0's front-end. It
// sends node 0 exactly one MsgTxnDone per batch, listing every node-0
// ClientSeq of that batch once, aborted transactions included; its own
// client and the unstamped transaction get none.
func TestTxnDoneOncePerBatchAndClient(t *testing.T) {
	tr := network.NewChanTransport([]tx.NodeID{0, 1, LeaderNode}, nil)
	c, err := NewWorker(WorkerConfig{
		Self: 1, Workers: []tx.NodeID{0, 1},
		Transport: tr, NetStats: tr.Stats(), Policy: policies(2)["calvin"],
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.StartWorker()
	// Node 0's side of the link: a reliable receiver that acks, so worker
	// 1 never retransmits and every notice is seen once.
	r0 := network.NewReliable(tr, []tx.NodeID{0})
	t.Cleanup(r0.Close)

	var own []tx.Key // rows worker 1 owns, so it commits every transaction
	for i := uint64(0); len(own) < 8; i++ {
		if k := tx.MakeKey(0, testRows-1-i); c.node(1).policy.Placement().Home(k) == 1 {
			own = append(own, k)
		}
	}
	next := tx.TxnID(1)
	batch := func(seq uint64, clients []tx.NodeID, clientSeqs []uint64) *tx.Batch {
		b := &tx.Batch{Seq: seq}
		for i, client := range clients {
			k := own[int(next)%len(own)]
			proc := &tx.CounterProc{Reads: []tx.Key{k}, Writes: []tx.Key{k}, Abort: i == 1}
			req := tx.NewRequest(next, proc)
			req.Client, req.ClientSeq = client, clientSeqs[i]
			b.Txns = append(b.Txns, req)
			next++
		}
		return b
	}
	batches := []*tx.Batch{
		batch(0, []tx.NodeID{0, 0, 1, 0, 0, 0}, []uint64{7, 3, 1, 0, 12, 9}),
		batch(1, []tx.NodeID{0, 0, 0}, []uint64{13, 15, 14}),
	}
	want := [][]uint64{{3, 7, 9, 12}, {13, 14, 15}}
	for _, b := range batches {
		if err := tr.Send(network.Message{From: LeaderNode, To: 1, Type: network.MsgSeqDeliver, Batch: b}); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]uint64
	for len(got) < len(want) {
		select {
		case m := <-r0.Recv(0):
			seqs, err := network.ClientSeqs(m.Payload)
			if m.Type != network.MsgTxnDone || err != nil {
				t.Fatalf("node 0 received %v (payload %v, %v), want MsgTxnDone", m.Type, seqs, err)
			}
			got = append(got, seqs)
		case <-time.After(5 * time.Second):
			t.Fatalf("received notices %v, want %v", got, want)
		}
	}
	// The two batches may finish in either order.
	slices.SortFunc(got, func(a, b []uint64) int { return slices.Compare(a, b) })
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("notices list %v, want one per batch listing %v", got, want)
		}
	}
	select {
	case m := <-r0.Recv(0):
		t.Fatalf("a third message reached node 0: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
}
