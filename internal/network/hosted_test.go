package network

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/leaktest"
	"hermes/internal/tx"
)

// hostedLeader stands in for engine.LeaderNode: an id co-hosted on a
// worker's transport.
const hostedLeader tx.NodeID = -64

// newHostedTransport starts node 0's transport, also hosting the ids in
// hosted.
func newHostedTransport(t *testing.T, hosted ...tx.NodeID) *TCPTransport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return NewTCPTransportListener(0, map[tx.NodeID]string{0: ln.Addr().String()}, ln, hosted...)
}

func recvWithin(t *testing.T, ch <-chan Message, what string) Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never delivered", what)
		return Message{}
	}
}

// TestHostedSendIsNotNetworkTraffic: a send between two ids one transport
// hosts reaches the other's inbox without a socket write, and the
// transport's accounting counts none of it.
func TestHostedSendIsNotNetworkTraffic(t *testing.T) {
	defer leaktest.Check(t)()
	tr := newHostedTransport(t, hostedLeader)
	defer tr.Close()
	batch := &tx.Batch{Txns: []*tx.Request{tx.NewRequest(1, &tx.CounterProc{Writes: []tx.Key{tx.MakeKey(0, 1)}})}}
	for _, m := range []Message{
		{From: 0, To: hostedLeader, Type: MsgSeqForward, Batch: batch},
		{From: hostedLeader, To: 0, Type: MsgSeqDeliver, Seq: 1, Batch: batch},
		{From: 0, To: hostedLeader, Type: MsgLinkAck, Link: 1},
	} {
		if err := tr.Send(m); err != nil {
			t.Fatal(err)
		}
		if got := recvWithin(t, tr.Recv(m.To), m.Type.String()); got.Type != m.Type || got.From != m.From {
			t.Fatalf("node %d received %+v, want the %v from %d", m.To, got, m.Type, m.From)
		}
	}
	msgs, bytes := tr.Stats().Totals()
	if tr.SocketWrites() != 0 || tr.SocketBytes() != 0 || msgs != 0 || bytes != 0 || len(tr.Stats().ByType()) != 0 {
		t.Fatalf("hosted sends counted as traffic: socket writes %d, socket bytes %d, stats %d msgs / %d B, by type %v",
			tr.SocketWrites(), tr.SocketBytes(), msgs, bytes, tr.Stats().ByType())
	}
}

// TestHostedFIFOPerPair: two senders flood one hosted inbox far past its
// channel while nothing reads. Local sends never wait, so every send
// returns, and most messages queue in the overflow; each (from, to) pair
// still arrives in send order, and nothing is lost.
func TestHostedFIFOPerPair(t *testing.T) {
	defer leaktest.Check(t)()
	tr := newHostedTransport(t, 1, 2)
	defer tr.Close()
	const perSender = 3 * 4096
	var wg sync.WaitGroup
	for _, from := range []tx.NodeID{0, 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perSender; i++ {
				if err := tr.Send(Message{From: from, To: 2, Seq: uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	sent := make(chan struct{})
	go func() { wg.Wait(); close(sent) }()
	select {
	case <-sent:
	case <-time.After(10 * time.Second):
		t.Fatal("local sends blocked on a full inbox")
	}
	next := map[tx.NodeID]uint64{0: 1, 1: 1}
	for n := 0; n < 2*perSender; n++ {
		m := recvWithin(t, tr.Recv(2), fmt.Sprintf("message %d", n))
		if m.Seq != next[m.From] {
			t.Fatalf("from %d: got seq %d, want %d (per-pair order violated)", m.From, m.Seq, next[m.From])
		}
		next[m.From]++
	}
}

// TestHostedIdsShareOneListener: a remote peer reaches both of a
// transport's hosted ids through its one listener; each frame lands in
// the inbox of its To, and the peer counts both as network traffic.
func TestHostedIdsShareOneListener(t *testing.T) {
	defer leaktest.Check(t)()
	t0 := newHostedTransport(t, hostedLeader)
	defer t0.Close()
	t1, err := NewTCPTransport(1, map[tx.NodeID]string{
		0: t0.Addr(), hostedLeader: t0.Addr(), 1: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	for _, to := range []tx.NodeID{0, hostedLeader, 0} {
		if err := t1.Send(Message{From: 1, To: to, Type: MsgControl, Payload: []byte{byte(to)}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, to := range []tx.NodeID{0, hostedLeader, 0} {
		if m := recvWithin(t, t0.Recv(to), fmt.Sprintf("frame to %d", to)); m.To != to || m.Payload[0] != byte(to) {
			t.Fatalf("inbox %d received %+v", to, m)
		}
	}
	if msgs, _ := t1.Stats().Totals(); msgs != 3 || t1.SocketWrites() != 3 {
		t.Fatalf("peer counted %d msgs in %d socket writes, want 3 and 3", msgs, t1.SocketWrites())
	}
}

// TestHostedReliablePumpsAckEachOther: one reliable layer receives for two
// ids on one transport, and both directions are flooded past the
// 4096-slot inbox while each pump acks the other through the other's
// inbox. Everything must be delivered in order and acknowledged.
func TestHostedReliablePumpsAckEachOther(t *testing.T) {
	defer leaktest.Check(t)()
	tr := newHostedTransport(t, hostedLeader)
	ids := []tx.NodeID{0, hostedLeader}
	r := NewReliable(tr, ids)
	defer r.Close()
	const perDir = 3 * 4096
	var wg sync.WaitGroup
	for _, pair := range [][2]tx.NodeID{{0, hostedLeader}, {hostedLeader, 0}} {
		from, to := pair[0], pair[1]
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 1; i <= perDir; i++ {
				if err := r.Send(Message{From: from, To: to, Type: MsgRecordPush, Seq: uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			in := r.Recv(to)
			for i := 1; i <= perDir; i++ {
				select {
				case m := <-in:
					if m.From != from || m.Seq != uint64(i) {
						t.Errorf("node %d: got seq %d from %d, want seq %d from %d", to, m.Seq, m.From, i, from)
						return
					}
				case <-time.After(20 * time.Second):
					t.Errorf("node %d: message %d of %d never delivered", to, i, perDir)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(20 * time.Second)
	for {
		unacked, backlog := r.Depths()
		if unacked == 0 && backlog == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still %d unacked and %d undelivered: the pumps stopped acking each other", unacked, backlog)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if msgs, _ := tr.Stats().Totals(); msgs != 0 || tr.SocketWrites() != 0 {
		t.Fatalf("hosted traffic counted: %d msgs, %d socket writes", msgs, tr.SocketWrites())
	}
}

// TestHostedRecvUnhostedPanics: Recv for an id the transport does not host
// is a wiring bug, and it fails loudly, naming the id, instead of handing
// back a nil channel that blocks its reader forever.
func TestHostedRecvUnhostedPanics(t *testing.T) {
	defer leaktest.Check(t)()
	tr := newHostedTransport(t, hostedLeader)
	defer tr.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Recv(7) on a transport hosting {0, -64} did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "7") {
			t.Fatalf("panic %q does not name node 7", msg)
		}
	}()
	tr.Recv(7)
}

// TestStatsByTypeOverTCP pins the per-type accounting to exact counts for
// a known mix over a TCP pair: each type's messages and WireSize bytes,
// summing to Totals. The sender's sends between its own hosted ids count
// nothing.
func TestStatsByTypeOverTCP(t *testing.T) {
	defer leaktest.Check(t)()
	t0, t1 := newTCPPair(t)
	defer t0.Close()
	defer t1.Close()
	t0h := newHostedTransport(t, hostedLeader)
	defer t0h.Close()
	key := tx.MakeKey(0, 1)
	batch := &tx.Batch{Txns: []*tx.Request{
		tx.NewRequest(1, &tx.CounterProc{Reads: []tx.Key{key}, Writes: []tx.Key{key}}),
		tx.NewRequest(2, &tx.CounterProc{Reads: []tx.Key{key}, Writes: []tx.Key{key}}),
	}}
	mix := []Message{
		{Type: MsgSeqDeliver, Seq: 1, Batch: batch},                                   // 32 + 2*(16+8) = 80: one key list, counted once
		{Type: MsgSeqDeliver, Seq: 2, Batch: batch},                                   // 80
		{Type: MsgLinkAck, Link: 2},                                                   // 32
		{Type: MsgTxnDone, Txn: 1, Seq: 1},                                            // 32
		{Type: MsgRecordPush, Records: []Record{{Key: key, Value: make([]byte, 20)}}}, // 32 + 12 + 20 = 64
	}
	for _, m := range mix {
		m.From, m.To = 0, 1
		if err := t0.Send(m); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, t1.Recv(1), m.Type.String())
		m.To = hostedLeader
		if err := t0h.Send(m); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, t0h.Recv(hostedLeader), "hosted "+m.Type.String())
	}
	want := map[MsgType]TypeTotals{
		MsgSeqDeliver: {Msgs: 2, Bytes: 160},
		MsgLinkAck:    {Msgs: 1, Bytes: 32},
		MsgTxnDone:    {Msgs: 1, Bytes: 32},
		MsgRecordPush: {Msgs: 1, Bytes: 64},
	}
	got := t0.Stats().ByType()
	if len(got) != len(want) {
		t.Fatalf("by type = %v, want %v", got, want)
	}
	for typ, w := range want {
		if got[typ] != w {
			t.Fatalf("%v: got %+v, want %+v (all: %v)", typ, got[typ], w, got)
		}
	}
	if msgs, bytes := t0.Stats().Totals(); msgs != 5 || bytes != 288 {
		t.Fatalf("totals = %d msgs / %d B, want 5 / 288", msgs, bytes)
	}
	if msgs, _ := t0h.Stats().Totals(); msgs != 0 || len(t0h.Stats().ByType()) != 0 {
		t.Fatalf("hosted sends counted: %d msgs, by type %v", msgs, t0h.Stats().ByType())
	}
}
