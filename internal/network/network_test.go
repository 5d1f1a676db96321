package network

import (
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/tx"
)

func nodes(n int) []tx.NodeID {
	out := make([]tx.NodeID, n)
	for i := range out {
		out[i] = tx.NodeID(i)
	}
	return out
}

// fixedDelay is a link model that delays every message on every link by
// d and never drops or duplicates one.
func fixedDelay(d time.Duration) LinkModel {
	return func(_, _ tx.NodeID) Fate {
		return func(sent time.Time, _ int) (time.Time, int) { return sent.Add(d), 1 }
	}
}

func TestWireSize(t *testing.T) {
	m := Message{Payload: []byte("abcd")}
	base := m.WireSize()
	if base != headerBytes+4 {
		t.Errorf("WireSize = %d, want %d", base, headerBytes+4)
	}
	m.Records = []Record{{Key: 1, Value: make([]byte, 100)}}
	if got := m.WireSize(); got != base+perRecordBytes+100 {
		t.Errorf("WireSize with record = %d, want %d", got, base+perRecordBytes+100)
	}
}

func TestMsgTypeString(t *testing.T) {
	const reserved = MsgType(6) // retired; journals and HTRC exports persist the numbers
	for mt := MsgRecordPush; mt <= MsgTxnDone; mt++ {
		if s := mt.String(); strings.HasPrefix(s, "MsgType(") != (mt == reserved) {
			t.Errorf("String of %d = %q", mt, s)
		}
	}
	if MsgSeqDeliver != 5 || MsgControl != 7 || MsgTxnDone != 13 {
		t.Errorf("persisted MsgType values moved: SeqDeliver=%d Control=%d TxnDone=%d, want 5, 7, 13",
			MsgSeqDeliver, MsgControl, MsgTxnDone)
	}
	if s := MsgType(200).String(); s != "MsgType(200)" {
		t.Errorf("unknown type String = %q", s)
	}
}

func TestChanTransportDelivery(t *testing.T) {
	tr := NewChanTransport(nodes(3), nil)
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 1, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-tr.Recv(1):
		if m.From != 0 || string(m.Payload) != "hi" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

// TestChanTransportFIFOPerLink: a link delivers in send order, and no
// message before its modelled latency has elapsed since its send. Both
// hold on the wall clock and in a synctest bubble, where no time passes
// until every goroutine waits and each delivery is exactly on time.
func TestChanTransportFIFOPerLink(t *testing.T) {
	const latency = 100 * time.Microsecond
	tr := NewChanTransport(nodes(2), fixedDelay(latency))
	defer tr.Close()
	const n = 100
	sent := make([]time.Time, n)
	for i := range sent {
		sent[i] = time.Now()
		if err := tr.Send(Message{From: 0, To: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range sent {
		select {
		case m := <-tr.Recv(1):
			if m.Seq != uint64(i) {
				t.Fatalf("out of order: got %d, want %d", m.Seq, i)
			}
			if waited := time.Since(sent[i]); waited < latency {
				t.Fatalf("message %d delivered %v after its send, before the %v latency", i, waited, latency)
			}
		case <-time.After(time.Second):
			t.Fatal("timed out waiting for messages")
		}
	}
}

func TestChanTransportLatencyGate(t *testing.T) {
	// Delivery must wait out the modelled latency and then arrive.
	const latency = 500 * time.Microsecond
	tr := NewChanTransport(nodes(2), fixedDelay(latency))
	defer tr.Close()
	sent := time.Now()
	if err := tr.Send(Message{From: 0, To: 1, Payload: []byte("gated")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-tr.Recv(1):
		if string(m.Payload) != "gated" {
			t.Fatalf("got %+v", m)
		}
		if waited := time.Since(sent); waited < latency {
			t.Fatalf("delivered %v after the send, before the %v latency", waited, latency)
		}
	case <-time.After(time.Second):
		t.Fatal("not delivered after the latency elapsed")
	}
}

func TestChanTransportLocalBypass(t *testing.T) {
	// Local sends must bypass the latency model entirely: an hour of
	// modelled latency would hold any message that touches the delay
	// path far past the one-second wait.
	tr := NewChanTransport(nodes(1), fixedDelay(time.Hour))
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tr.Recv(0):
	case <-time.After(time.Second):
		t.Fatal("local message delayed by latency model")
	}
	if msgs, _ := tr.Stats().Totals(); msgs != 0 {
		t.Errorf("local send counted as network traffic: %d msgs", msgs)
	}
}

func TestChanTransportStats(t *testing.T) {
	tr := NewChanTransport(nodes(2), nil)
	defer tr.Close()
	m := Message{From: 0, To: 1, Payload: make([]byte, 68)}
	tr.Send(m)
	<-tr.Recv(1)
	msgs, bytes := tr.Stats().Totals()
	if msgs != 1 || bytes != int64(m.WireSize()) {
		t.Errorf("Stats = %d msgs %d bytes, want 1 msg %d bytes", msgs, bytes, m.WireSize())
	}
}

func TestChanTransportUnknownNode(t *testing.T) {
	tr := NewChanTransport(nodes(1), nil)
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 9}); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
}

func TestChanTransportSendAfterClose(t *testing.T) {
	tr := NewChanTransport(nodes(2), nil)
	tr.Close()
	if err := tr.Send(Message{From: 0, To: 1}); err == nil {
		t.Fatal("send after close succeeded")
	}
	tr.Close() // double close must be safe
}

func TestChanTransportConcurrentSendClose(t *testing.T) {
	tr := NewChanTransport(nodes(4), fixedDelay(10*time.Microsecond))
	var wg sync.WaitGroup
	// Drain inboxes so links never back up.
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func(n tx.NodeID) {
			for {
				select {
				case <-tr.Recv(n):
				case <-stop:
					return
				}
			}
		}(tx.NodeID(i))
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Send(Message{From: tx.NodeID(g % 4), To: tx.NodeID((g + 1) % 4)})
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	tr.Close() // must not panic regardless of in-flight sends
	wg.Wait()
	close(stop)
}

func TestTCPTransportRoundTrip(t *testing.T) {
	addrs := map[tx.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, err := NewTCPTransport(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	addrs[0] = t0.Addr()
	t1, err := NewTCPTransport(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()
	t0.SetAddr(1, t1.Addr())

	want := Message{
		From: 0, To: 1, Type: MsgRecordPush, Txn: 7,
		Records: []Record{{Key: tx.MakeKey(1, 42), Value: []byte("payload")}},
	}
	if err := t0.Send(want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-t1.Recv(1):
		if got.Txn != 7 || len(got.Records) != 1 || string(got.Records[0].Value) != "payload" ||
			got.Records[0].Key != tx.MakeKey(1, 42) {
			t.Fatalf("got %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP message not delivered")
	}

	// Reply over the reverse direction.
	if err := t1.Send(Message{From: 1, To: 0, Type: MsgControl}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-t0.Recv(0):
		if got.Type != MsgControl {
			t.Fatalf("got %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP reply not delivered")
	}
}

func TestTCPTransportLocalSend(t *testing.T) {
	tr, err := NewTCPTransport(0, map[tx.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 0, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-tr.Recv(0):
		if string(m.Payload) != "x" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("local message not delivered")
	}
}

func TestTCPTransportErrors(t *testing.T) {
	if _, err := NewTCPTransport(0, map[tx.NodeID]string{1: "127.0.0.1:0"}); err == nil {
		t.Fatal("missing self address accepted")
	}
	tr, err := NewTCPTransport(0, map[tx.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(Message{From: 0, To: 9}); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
	tr.Close()
	if err := tr.Send(Message{From: 0, To: 0}); err == nil {
		t.Fatal("send after close succeeded")
	}
	tr.Close() // double close safe
}

func TestTCPTransportManyMessages(t *testing.T) {
	addrs := map[tx.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, _ := NewTCPTransport(0, addrs)
	defer t0.Close()
	addrs[0] = t0.Addr()
	t1, _ := NewTCPTransport(1, addrs)
	defer t1.Close()
	t0.SetAddr(1, t1.Addr())

	const n = 1000
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < n; i++ {
			t0.Send(Message{From: 0, To: 1, Seq: uint64(i)})
		}
	}()
	for i := 0; i < n; i++ {
		select {
		case m := <-t1.Recv(1):
			if m.Seq != uint64(i) {
				t.Fatalf("out of order at %d: got %d", i, m.Seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at message %d", i)
		}
	}
	<-sent // Send counts a message after writing it, which the peer may outrun
	msgs, bytes := t0.Stats().Totals()
	if msgs != n || bytes <= 0 {
		t.Errorf("stats = %d msgs %d bytes", msgs, bytes)
	}
}

func BenchmarkChanTransportSend(b *testing.B) {
	tr := NewChanTransport(nodes(2), nil)
	defer tr.Close()
	go func() {
		for range tr.Recv(1) {
		}
	}()
	m := Message{From: 0, To: 1, Payload: make([]byte, 128)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPTransportRoundTrip(b *testing.B) {
	addrs := map[tx.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, _ := NewTCPTransport(0, addrs)
	defer t0.Close()
	addrs[0] = t0.Addr()
	t1, _ := NewTCPTransport(1, addrs)
	defer t1.Close()
	t0.SetAddr(1, t1.Addr())
	t1.SetAddr(0, t0.Addr())
	m := Message{From: 0, To: 1, Records: []Record{{Key: 1, Value: make([]byte, 1024)}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t0.Send(m); err != nil {
			b.Fatal(err)
		}
		<-t1.Recv(1)
		if err := t1.Send(Message{From: 1, To: 0}); err != nil {
			b.Fatal(err)
		}
		<-t0.Recv(0)
	}
}
