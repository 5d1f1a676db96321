package sequencer

import (
	"sync"
	"testing"
	"time"

	"hermes/internal/network"
	"hermes/internal/tx"
)

// ackGate wraps a ChanTransport and holds back standby replication acks
// while closed, releasing them on demand — the probe for the commit rule
// (a batch is deliverable only once the standbys appended it).
type ackGate struct {
	*network.ChanTransport
	mu   sync.Mutex
	open bool
	held []network.Message
}

func (g *ackGate) Send(m network.Message) error {
	if m.Type == network.MsgSeqReplicateAck {
		g.mu.Lock()
		if !g.open {
			g.held = append(g.held, m)
			g.mu.Unlock()
			return nil
		}
		g.mu.Unlock()
	}
	return g.ChanTransport.Send(m)
}

func (g *ackGate) release() {
	g.mu.Lock()
	held := g.held
	g.held = nil
	g.open = true
	g.mu.Unlock()
	for _, m := range held {
		_ = g.ChanTransport.Send(m)
	}
}

func groupConfig() Config {
	return Config{
		BatchSize: 1, Interval: time.Hour,
		Standbys:        1,
		Heartbeat:       time.Millisecond,
		FailoverTimeout: 15 * time.Millisecond,
		RetryTimeout:    5 * time.Millisecond,
		RetryCap:        50 * time.Millisecond,
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestGroupDeliveryWaitsForStandbyAck pins the replication commit rule:
// a sealed batch must not reach the members until the standby has
// acknowledged appending it.
func TestGroupDeliveryWaitsForStandbyAck(t *testing.T) {
	members := []tx.NodeID{0, 1}
	all := append(append([]tx.NodeID(nil), members...), GroupNodes(leaderID, 1)...)
	gate := &ackGate{ChanTransport: network.NewChanTransport(all, nil)}
	g := NewGroup(leaderID, gate, members, groupConfig(), nil)
	g.Start()
	t.Cleanup(func() { g.Stop(); gate.Close() })

	fe := NewSessionFrontend(members[0], leaderID, gate, nil, time.Hour, time.Hour)
	t.Cleanup(fe.Stop)
	if err := fe.Submit(req()); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-gate.Recv(members[1]):
		t.Fatalf("batch delivered before the standby acked: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	gate.release()
	b := recvBatch(t, gate, members[1])
	if b.Seq != 0 || len(b.Txns) != 1 {
		t.Fatalf("released batch = seq %d with %d txns, want seq 0 with 1", b.Seq, len(b.Txns))
	}
}

// TestGroupPromotionAndDedup kills the leader and checks the whole
// failover story at the sequencer layer: the standby notices the silence
// (counting misses), promotes itself into epoch 1, re-delivers the
// replicated history, dedups the front-end's blanket resend, and
// sequences new submissions with the next dense transaction id.
func TestGroupPromotionAndDedup(t *testing.T) {
	members := []tx.NodeID{0}
	all := append(append([]tx.NodeID(nil), members...), GroupNodes(leaderID, 1)...)
	tr := network.NewChanTransport(all, nil)
	g := NewGroup(leaderID, tr, members, groupConfig(), nil)
	g.Start()
	t.Cleanup(func() { g.Stop(); tr.Close() })

	fe := NewSessionFrontend(members[0], leaderID, tr, nil, 5*time.Millisecond, 50*time.Millisecond)
	t.Cleanup(fe.Stop)

	inbox := tr.Recv(members[0])
	// seen maps ClientSeq -> the batch seq it was sealed into; a second
	// batch seq for the same ClientSeq is a double-sequencing bug.
	seen := make(map[uint64]uint64)
	ids := make(map[uint64]tx.TxnID)
	collect := func(d time.Duration) {
		deadline := time.After(d)
		for {
			select {
			case m := <-inbox:
				if m.Type != network.MsgSeqDeliver {
					continue
				}
				for _, r := range m.Batch.Txns {
					if prev, dup := seen[r.ClientSeq]; dup && prev != m.Seq {
						t.Fatalf("client seq %d sequenced twice: batches %d and %d", r.ClientSeq, prev, m.Seq)
					}
					if prevID, dup := ids[r.ClientSeq]; dup && prevID != r.ID {
						t.Fatalf("client seq %d changed txn id across redelivery: %d then %d", r.ClientSeq, prevID, r.ID)
					}
					seen[r.ClientSeq] = m.Seq
					ids[r.ClientSeq] = r.ID
				}
			case <-deadline:
				return
			}
		}
	}

	for i := 0; i < 3; i++ {
		if err := fe.Submit(req()); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "first three batches", func() (ok bool) {
		collect(time.Millisecond)
		return len(seen) == 3
	})

	g.Kill(leaderID)
	standby := SeqNode(leaderID, 1)
	waitUntil(t, "promotion", func() bool { return g.LeaderID() == standby && g.Failovers() == 1 })
	if g.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", g.Epoch())
	}
	if g.HeartbeatMisses() == 0 {
		t.Fatal("no heartbeat misses recorded before promotion")
	}
	// The engine redirects front-ends on promotion; simulate it. Nothing
	// ever called Sequenced, so the frontend resends all three already-
	// sealed submissions — the new leader must dedup every one of them.
	fe.SetLeader(standby)
	if err := fe.Submit(req()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "post-failover batch", func() (ok bool) {
		collect(time.Millisecond)
		return len(seen) == 4
	})
	collect(20 * time.Millisecond) // absorb re-deliveries; collect re-checks dedup
	// Dense total order: txn ids 1..4, each client seq in exactly one batch.
	for cs := uint64(1); cs <= 4; cs++ {
		if got, want := ids[cs], tx.TxnID(cs); got != want {
			t.Fatalf("client seq %d got txn id %d, want %d", cs, got, want)
		}
	}
	if fe.Unacked() == 0 {
		t.Fatal("unacked queue empty without any Sequenced call")
	}
	// Sequencing acknowledgements prune the queue through the last batch.
	fe.Sequenced(&tx.Request{Client: members[0], ClientSeq: 4})
	if got := fe.Unacked(); got != 0 {
		t.Fatalf("unacked = %d after acknowledging everything, want 0", got)
	}
}

// TestGroupObserveEpochOrdersClaims pins the claim ordering the view and
// the replicas share: epoch first, then replica id, higher id (= lower
// rank) winning a same-epoch tie.
func TestGroupObserveEpochOrdersClaims(t *testing.T) {
	members := []tx.NodeID{0}
	all := append(append([]tx.NodeID(nil), members...), GroupNodes(leaderID, 2)...)
	tr := network.NewChanTransport(all, nil)
	cfg := groupConfig()
	cfg.Standbys = 2
	g := NewGroup(leaderID, tr, members, cfg, nil)
	t.Cleanup(func() { tr.Close() }) // never started; replicas hold no goroutines

	r1, r2 := SeqNode(leaderID, 1), SeqNode(leaderID, 2)
	if g.ObserveEpoch(leaderID, 0) {
		t.Fatal("re-observing the initial claim advanced the view")
	}
	if !g.ObserveEpoch(r2, 1) {
		t.Fatal("fresh epoch rejected")
	}
	// Same epoch, lower rank (higher id): wins the tie.
	if !g.ObserveEpoch(r1, 1) {
		t.Fatal("higher-priority same-epoch claim rejected")
	}
	// Same epoch, higher rank: loses.
	if g.ObserveEpoch(r2, 1) {
		t.Fatal("lower-priority same-epoch claim accepted")
	}
	if g.ObserveEpoch(leaderID, 0) {
		t.Fatal("stale epoch accepted")
	}
	if g.LeaderID() != r1 || g.Epoch() != 1 {
		t.Fatalf("view = (%d, %d), want (%d, 1)", g.LeaderID(), g.Epoch(), r1)
	}
}

// TestFrontendRedirectResendsInOrder pins the redirect path: everything
// unacknowledged is retransmitted to the new leader in submission order.
func TestFrontendRedirectResendsInOrder(t *testing.T) {
	nodes := []tx.NodeID{0, 1, 2}
	tr := network.NewChanTransport(nodes, nil)
	defer tr.Close()
	// Leader 1 is a black hole; nothing acknowledges.
	fe := NewSessionFrontend(0, 1, tr, nil, time.Hour, time.Hour)
	defer fe.Stop()
	for i := 0; i < 5; i++ {
		if err := fe.Submit(req()); err != nil {
			t.Fatal(err)
		}
	}
	if got := fe.Unacked(); got != 5 {
		t.Fatalf("unacked = %d, want 5", got)
	}
	fe.SetLeader(2)
	for want := uint64(1); want <= 5; want++ {
		select {
		case m := <-tr.Recv(2):
			if m.Type != network.MsgSeqForward || len(m.Batch.Txns) != 1 {
				t.Fatalf("unexpected redirect message %+v", m)
			}
			if got := m.Batch.Txns[0].ClientSeq; got != want {
				t.Fatalf("redirected client seq %d, want %d (order violated)", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("redirected submission %d never arrived", want)
		}
	}
}

// holdFirstSend blocks the first send to node `to` until released; the
// sender is inside the front-end's send lock while it waits.
type holdFirstSend struct {
	network.Transport
	to               tx.NodeID
	once             sync.Once
	entered, release chan struct{}
}

func (h *holdFirstSend) Send(m network.Message) error {
	if m.To == h.to {
		h.once.Do(func() {
			close(h.entered)
			<-h.release
		})
	}
	return h.Transport.Send(m)
}

// TestFrontendRedirectNeverLetsAFreshSubmissionOvertake: a leader change
// that lands while submissions are in flight must still show the new
// leader the client's stream in order. The leader drops any request whose
// ClientSeq is not above the client's highest, so a fresh submission
// reaching it ahead of the resent queue would turn the queue into
// "duplicates" — lost requests the front-end then believes acknowledged.
// (Seen as TestLeaderFailoverBackToBack draining with 3 transactions
// pending and nothing unacknowledged.)
func TestFrontendRedirectNeverLetsAFreshSubmissionOvertake(t *testing.T) {
	for round := 0; round < 20; round++ {
		base := network.NewChanTransport([]tx.NodeID{0, 1, 2}, nil)
		tr := &holdFirstSend{Transport: base, to: 1, entered: make(chan struct{}), release: make(chan struct{})}
		fe := NewSessionFrontend(0, 1, tr, nil, time.Hour, time.Hour)
		submitted := make(chan error, 1)
		go func() {
			err := fe.Submit(req()) // seq 1: held inside the send to the old leader
			if err == nil {
				err = fe.Submit(req()) // seq 2: contends with the redirect's resend
			}
			submitted <- err
		}()
		<-tr.entered
		redirected := make(chan struct{})
		go func() {
			fe.SetLeader(2)
			close(redirected)
		}()
		time.Sleep(time.Millisecond) // let the redirect reach the send lock
		close(tr.release)
		if err := <-submitted; err != nil {
			t.Fatal(err)
		}
		<-redirected
		// Whatever the interleaving, the new leader must have been sent 1
		// before 2: nothing arrives more than one ahead of what it has seen.
		var high uint64
		for high < 2 {
			select {
			case m := <-base.Recv(2):
				seq := m.Batch.Txns[0].ClientSeq
				if seq > high+1 {
					t.Fatalf("round %d: the new leader saw client seq %d before %d", round, seq, high+1)
				}
				if seq > high {
					high = seq
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("round %d: the new leader never saw client seq %d", round, high+1)
			}
		}
		fe.Stop()
		base.Close()
	}
}

// TestFrontendRetryBackoffIsCapped drives a stalled front-end against a
// black-hole leader and checks both that it keeps retrying and that the
// inter-retry backoff saturates at the cap instead of doubling forever.
func TestFrontendRetryBackoffIsCapped(t *testing.T) {
	nodes := []tx.NodeID{0, 1}
	tr := network.NewChanTransport(nodes, nil)
	defer tr.Close()
	const retry, rcap = 2 * time.Millisecond, 8 * time.Millisecond
	fe := NewSessionFrontend(0, 1, tr, nil, retry, rcap)
	defer fe.Stop()
	if err := fe.Submit(req()); err != nil {
		t.Fatal(err)
	}
	// Count retransmissions over a window long enough that uncapped
	// doubling (2, 4, 8, 16, 32, 64, 128...) would manage only ~6, while
	// capped-at-8ms retries keep firing.
	start := time.Now()
	resends := 0
	for time.Since(start) < 400*time.Millisecond {
		select {
		case m := <-tr.Recv(1):
			if m.Type == network.MsgSeqForward {
				resends++
			}
		case <-time.After(20 * time.Millisecond):
		}
	}
	fe.mu.Lock()
	backoff := fe.backoff
	fe.mu.Unlock()
	if backoff != rcap {
		t.Fatalf("stalled backoff = %v, want saturated at %v", backoff, rcap)
	}
	if resends < 10 {
		t.Fatalf("only %d retransmissions in 400ms; backoff appears uncapped", resends)
	}
}

// TestGroupStandbyTruncatesDivergentSuffix pins the reconciliation rule
// for a standby that appended a batch the dead leader sealed but never
// released: when the promoted leader reseals the same sequence number
// with different transactions, the standby must drop its divergent
// suffix — rolling nextTxn and the per-client watermarks back — and
// adopt the new leader's batch, rather than ignoring it as a duplicate.
func TestGroupStandbyTruncatesDivergentSuffix(t *testing.T) {
	tr := network.NewChanTransport([]tx.NodeID{-65, 0}, nil)
	defer tr.Close()
	l := newReplica(-65, tr, []tx.NodeID{0}, Config{BatchSize: 4}, nil, nil)

	mkReq := func(id tx.TxnID, seq uint64) *tx.Request {
		return &tx.Request{ID: id, Client: 7, ClientSeq: seq}
	}
	a := &tx.Batch{Seq: 0, Txns: []*tx.Request{mkReq(1, 1), mkReq(2, 2)}}
	b := &tx.Batch{Seq: 1, Txns: []*tx.Request{mkReq(3, 3), mkReq(4, 4)}}

	l.mu.Lock()
	l.appendReplicatedLocked(a)
	l.appendReplicatedLocked(b)
	if l.nextSeq != 2 || l.nextTxn != 5 || l.sealedHigh[7] != 4 {
		t.Fatalf("after epoch-0 stream: nextSeq=%d nextTxn=%d high=%d, want 2/5/4",
			l.nextSeq, l.nextTxn, l.sealedHigh[7])
	}

	// The leader dies before b is released anywhere else; the promoted
	// leader never saw it and reseals seq 1 with only the one request the
	// front-ends resent.
	l.epoch = 1
	b2 := &tx.Batch{Seq: 1, Txns: []*tx.Request{mkReq(3, 3)}}
	l.appendReplicatedLocked(b2)
	if len(l.log) != 2 || l.log[1] != b2 {
		t.Fatalf("divergent entry not superseded: log=%v", l.log)
	}
	if l.nextSeq != 2 || l.nextTxn != 4 || l.sealedHigh[7] != 3 {
		t.Fatalf("after reconcile: nextSeq=%d nextTxn=%d high=%d, want 2/4/3",
			l.nextSeq, l.nextTxn, l.sealedHigh[7])
	}
	if l.logEpochs[0] != 0 || l.logEpochs[1] != 1 {
		t.Fatalf("epoch tags = %v, want [0 1]", l.logEpochs)
	}

	// A retransmit of the entry we hold refreshes its tag and changes
	// nothing else.
	l.appendReplicatedLocked(a)
	if len(l.log) != 2 || l.log[0] != a || l.logEpochs[0] != 1 {
		t.Fatalf("retransmit of held entry mutated the log: %v tags=%v", l.log, l.logEpochs)
	}
	if l.nextSeq != 2 || l.nextTxn != 4 {
		t.Fatalf("retransmit moved the high-water mark: nextSeq=%d nextTxn=%d", l.nextSeq, l.nextTxn)
	}

	// A same-claim duplicate that is not the held object (re-decoded off
	// a real network) is dropped, not treated as divergence.
	dup := &tx.Batch{Seq: 1, Txns: []*tx.Request{mkReq(3, 3)}}
	l.appendReplicatedLocked(dup)
	if l.log[1] != b2 {
		t.Fatalf("same-claim duplicate replaced the held entry")
	}
	l.mu.Unlock()
}

// TestFrontendSequencedDoesNotAllocate: acknowledging a prefix of the retry
// queue shifts the rest in place — it runs for every sealed request of
// every batch — and leaves no stale pointer behind the new length.
func TestFrontendSequencedDoesNotAllocate(t *testing.T) {
	tr := network.NewChanTransport([]tx.NodeID{0, 1}, nil)
	defer tr.Close()
	fe := NewSessionFrontend(0, 1, tr, nil, time.Hour, time.Hour)
	defer fe.Stop()
	const window = 64
	reqs := make([]*tx.Request, window)
	for i := range reqs {
		reqs[i] = req()
		reqs[i].ClientSeq = uint64(i + 1)
	}
	fe.unacked = make([]*tx.Request, 0, window)
	allocs := testing.AllocsPerRun(100, func() {
		fe.unacked = append(fe.unacked[:0], reqs...)
		fe.Sequenced(reqs[window/2-1])
	})
	if allocs != 0 {
		t.Fatalf("acknowledging half of a %d-request queue allocated %.0f times, want 0", window, allocs)
	}
	if got := fe.Unacked(); got != window/2 || fe.unacked[0] != reqs[window/2] {
		t.Fatalf("queue after the ack: %d left, want %d starting at client seq %d", got, window/2, window/2+1)
	}
	for i, r := range fe.unacked[window/2 : window] {
		if r != nil {
			t.Fatalf("vacated slot %d still pins a sealed request", window/2+i)
		}
	}
}
