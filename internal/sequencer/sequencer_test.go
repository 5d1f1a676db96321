package sequencer

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/leaktest"
	"hermes/internal/network"
	"hermes/internal/tx"
)

const leaderID = tx.NodeID(100)

func newCluster(t *testing.T, nodes int, cfg Config) (*network.ChanTransport, *Leader, []tx.NodeID) {
	t.Helper()
	ids := make([]tx.NodeID, nodes)
	for i := range ids {
		ids[i] = tx.NodeID(i)
	}
	tr := NewTransportWithLeader(ids, leaderID)
	l := NewLeader(leaderID, tr, ids, cfg, nil)
	l.Start()
	t.Cleanup(func() { l.Stop(); tr.Close() })
	return tr, l, ids
}

// NewTransportWithLeader builds a ChanTransport whose node set includes the
// dedicated leader machine.
func NewTransportWithLeader(nodes []tx.NodeID, leader tx.NodeID) *network.ChanTransport {
	all := append(append([]tx.NodeID(nil), nodes...), leader)
	return network.NewChanTransport(all, nil)
}

func req() *tx.Request {
	return tx.NewRequest(0, &tx.CounterProc{Reads: []tx.Key{1}, Writes: []tx.Key{1}})
}

func recvBatch(t *testing.T, tr network.Transport, node tx.NodeID) *tx.Batch {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case m := <-tr.Recv(node):
			if m.Type == network.MsgSeqDeliver {
				return m.Batch
			}
		case <-deadline:
			t.Fatal("no batch delivered")
			return nil
		}
	}
}

func TestBatchDeliveredToAllNodes(t *testing.T) {
	tr, _, ids := newCluster(t, 3, Config{BatchSize: 2})
	fe := NewFrontend(ids[1], leaderID, tr)
	fe.Submit(req())
	fe.Submit(req()) // second request fills the batch
	for _, n := range ids {
		b := recvBatch(t, tr, n)
		if b.Seq != 0 || len(b.Txns) != 2 {
			t.Fatalf("node %d got batch seq=%d len=%d", n, b.Seq, len(b.Txns))
		}
	}
}

func TestTxnIDsAreDenseAndOrdered(t *testing.T) {
	tr, _, ids := newCluster(t, 2, Config{BatchSize: 5})
	fe := NewFrontend(ids[0], leaderID, tr)
	for i := 0; i < 10; i++ {
		fe.Submit(req())
	}
	want := tx.TxnID(1)
	for b := 0; b < 2; b++ {
		batch := recvBatch(t, tr, ids[0])
		if batch.Seq != uint64(b) {
			t.Fatalf("batch seq = %d, want %d", batch.Seq, b)
		}
		for _, r := range batch.Txns {
			if r.ID != want {
				t.Fatalf("txn id = %d, want %d", r.ID, want)
			}
			want++
		}
	}
}

func TestIntervalFlush(t *testing.T) {
	tr, _, ids := newCluster(t, 1, Config{BatchSize: 1000, Interval: 5 * time.Millisecond})
	fe := NewFrontend(ids[0], leaderID, tr)
	fe.Submit(req())
	b := recvBatch(t, tr, ids[0]) // must arrive despite batch not full
	if len(b.Txns) != 1 {
		t.Fatalf("batch len = %d", len(b.Txns))
	}
}

// TestZeroIntervalSealsOnSizeOnly: with no Interval the leader runs no
// flush loop, so a batch seals when BatchSize requests are pending and not
// before — and Stop leaves no timer goroutine behind.
func TestZeroIntervalSealsOnSizeOnly(t *testing.T) {
	check := leaktest.Check(t)
	ids := []tx.NodeID{0}
	tr := NewTransportWithLeader(ids, leaderID)
	l := NewLeader(leaderID, tr, ids, Config{BatchSize: 4}, nil)
	l.Start()
	fe := NewFrontend(ids[0], leaderID, tr)
	for i := 0; i < 3; i++ {
		fe.Submit(req())
	}
	select {
	case m := <-tr.Recv(ids[0]):
		t.Fatalf("a batch of %d sealed before the batch size was reached", len(m.Batch.Txns))
	case <-time.After(50 * time.Millisecond):
	}
	fe.Submit(req())
	if b := recvBatch(t, tr, ids[0]); len(b.Txns) != 4 {
		t.Fatalf("batch of %d sealed, want the 4 submitted", len(b.Txns))
	}
	l.Stop()
	tr.Close()
	check()
}

func TestIdenticalBatchStreamAcrossNodes(t *testing.T) {
	tr, _, ids := newCluster(t, 4, Config{BatchSize: 3, Interval: 2 * time.Millisecond})
	fe0 := NewFrontend(ids[0], leaderID, tr)
	fe1 := NewFrontend(ids[1], leaderID, tr)
	const total = 30
	for i := 0; i < total; i++ {
		if i%2 == 0 {
			fe0.Submit(req())
		} else {
			fe1.Submit(req())
		}
	}
	// Collect the full stream per node and compare.
	streams := make([][]tx.TxnID, len(ids))
	for ni, n := range ids {
		got := 0
		for got < total {
			b := recvBatch(t, tr, n)
			for _, r := range b.Txns {
				streams[ni] = append(streams[ni], r.ID)
				got++
			}
		}
	}
	for ni := 1; ni < len(streams); ni++ {
		if len(streams[ni]) != len(streams[0]) {
			t.Fatalf("node %d saw %d txns, node 0 saw %d", ni, len(streams[ni]), len(streams[0]))
		}
		for i := range streams[0] {
			if streams[ni][i] != streams[0][i] {
				t.Fatalf("node %d diverges at position %d", ni, i)
			}
		}
	}
}

// yield gives the other goroutines n chances to run. Tests use it instead
// of a short sleep where the goroutines they make way for may wait on a
// mutex or spin: in a synctest bubble either keeps the clock from moving,
// and the sleep would never end.
func yield(n int) {
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}

// lagTransport delays every even-numbered batch on its way to node 0, so
// whichever goroutine is delivering that batch falls behind one that
// sealed the next batch a moment later.
type lagTransport struct {
	network.Transport
}

func (t lagTransport) Send(m network.Message) error {
	if m.Type == network.MsgSeqDeliver && m.To == 0 && m.Seq%2 == 0 {
		yield(100)
	}
	return t.Transport.Send(m)
}

// TestConcurrentFlushDeliversInOrder pins the single-flight rule: with the
// size trigger, the interval loop and several external callers all
// flushing while forwards arrive, a member's inbox must still see strictly
// ascending batch sequence numbers even when one deliverer is slow.
func TestConcurrentFlushDeliversInOrder(t *testing.T) {
	ids := []tx.NodeID{0, 1}
	tr := lagTransport{NewTransportWithLeader(ids, leaderID)}
	l := NewLeader(leaderID, tr, ids, Config{BatchSize: 4, Interval: time.Millisecond}, nil)
	l.Start()
	t.Cleanup(func() { l.Stop(); tr.Close() })

	stop := make(chan struct{})
	var flushers sync.WaitGroup
	for i := 0; i < 4; i++ {
		flushers.Add(1)
		go func() {
			defer flushers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					l.Flush()
				}
			}
		}()
	}
	defer flushers.Wait()
	defer close(stop)

	const total = 400
	fe := NewFrontend(ids[1], leaderID, tr)
	go func() {
		for i := 0; i < total; i++ {
			if fe.Submit(req()) != nil {
				return // transport closed: the test already failed
			}
		}
	}()
	var want uint64
	for got := 0; got < total; {
		b := recvBatch(t, tr, 0)
		if b.Seq != want {
			t.Fatalf("node 0 received batch %d, wanted %d: a later flush overtook an earlier one", b.Seq, want)
		}
		want++
		got += len(b.Txns)
	}
}

func TestStopIsIdempotentAndHalts(t *testing.T) {
	ids := []tx.NodeID{0}
	tr := NewTransportWithLeader(ids, leaderID)
	defer tr.Close()
	l := NewLeader(leaderID, tr, ids, Config{BatchSize: 1, Interval: time.Millisecond}, nil)
	l.Start()
	l.Stop()
	l.Stop() // second stop must not panic or deadlock
}

// replicaGoroutines counts the goroutines running a replica's code.
func replicaGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sequencer.(*Leader).") {
			n++
		}
	}
	return n
}

// outliving reports how many more goroutines run a replica's code than
// before did. Stop returns once the loops have called Done, a moment
// before they exit, so a count above before is taken again after a few
// yields have let them go. The yields take far less than a heartbeat.
func outliving(before int) int {
	n := replicaGoroutines()
	if n > before {
		yield(10)
		n = replicaGoroutines()
	}
	return n - before
}

// TestStoppedLeaderLeavesNothing: Stop returns only once every goroutine
// the leader started has exited, even an hour before its next flush tick.
func TestStoppedLeaderLeavesNothing(t *testing.T) {
	defer leaktest.Check(t)()
	ids := []tx.NodeID{0}
	tr := NewTransportWithLeader(ids, leaderID)
	defer tr.Close()
	before := replicaGoroutines()
	l := NewLeader(leaderID, tr, ids, Config{BatchSize: 1, Interval: time.Hour}, nil)
	l.Start()
	l.Stop()
	if n := outliving(before); n > 0 {
		t.Errorf("%d goroutines of the stopped leader still run", n)
	}
}

func TestEmptyFlushProducesNothing(t *testing.T) {
	tr, l, ids := newCluster(t, 1, Config{BatchSize: 10})
	l.Flush()
	select {
	case m := <-tr.Recv(ids[0]):
		t.Fatalf("unexpected delivery: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}
