package network

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/clock"
	"hermes/internal/tx"
)

func nodes(n int) []tx.NodeID {
	out := make([]tx.NodeID, n)
	for i := range out {
		out[i] = tx.NodeID(i)
	}
	return out
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

func TestChanTransportFIFOPerLink(t *testing.T) {
	// A manual clock makes the latency path deterministic: nothing can be
	// delivered until the clock moves past the stamped due times, and no
	// real time is spent waiting.
	clk := clock.NewManual(time.Unix(0, 0))
	tr := NewChanTransportClock(nodes(2), UniformLatency(100*time.Microsecond, 0), clk)
	defer tr.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The clock has not moved, so delivery is impossible yet.
	select {
	case m := <-tr.Recv(1):
		t.Fatalf("message %d delivered before the clock advanced", m.Seq)
	default:
	}
	clk.Advance(time.Millisecond)
	for i := 0; i < n; i++ {
		select {
		case m := <-tr.Recv(1):
			if m.Seq != uint64(i) {
				t.Fatalf("out of order: got %d, want %d", m.Seq, i)
			}
		case <-time.After(time.Second):
			t.Fatal("timed out waiting for messages")
		}
	}
}

func TestChanTransportLatencyGate(t *testing.T) {
	// Delivery must wait out exactly the modelled latency: not before the
	// due time, promptly after it.
	clk := clock.NewManual(time.Unix(0, 0))
	tr := NewChanTransportClock(nodes(2), UniformLatency(500*time.Microsecond, 0), clk)
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 1, Payload: []byte("gated")}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(499 * time.Microsecond)
	select {
	case <-tr.Recv(1):
		t.Fatal("delivered before the modelled latency elapsed")
	default:
	}
	clk.Advance(2 * time.Microsecond)
	select {
	case m := <-tr.Recv(1):
		if string(m.Payload) != "gated" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("not delivered after the latency elapsed")
	}
}

// advanceOnWait is a manual clock on which an Advance lands at the worst
// moment for the link goroutine: once it has taken the message and is about
// to wait out the latency.
type advanceOnWait struct {
	*clock.Manual
	step  time.Duration
	once  sync.Once
	fired chan struct{}
}

func (c *advanceOnWait) SleepUntil(t time.Time) {
	c.once.Do(func() {
		c.Advance(c.step)
		close(c.fired)
	})
	c.Manual.SleepUntil(t)
}

// TestChanTransportLatencyGateSurvivesRacingAdvance forces the interleaving
// that used to hang TestChanTransportLatencyGate about one run in 500: the
// clock moves 499 µs after the link goroutine has looked at the message's
// due time and before it blocks. The link waits for the absolute due time,
// so the next 2 µs still deliver; when it slept for "due − now" computed
// before the move, its deadline slid to 999 µs and the message never came.
func TestChanTransportLatencyGateSurvivesRacingAdvance(t *testing.T) {
	clk := &advanceOnWait{
		Manual: clock.NewManual(time.Unix(0, 0)),
		step:   499 * time.Microsecond, fired: make(chan struct{}),
	}
	tr := NewChanTransportClock(nodes(2), UniformLatency(500*time.Microsecond, 0), clk)
	defer tr.Close()
	defer clk.Advance(time.Hour) // a failing run must not leave Close waiting on the link
	if err := tr.Send(Message{From: 0, To: 1, Payload: []byte("gated")}); err != nil {
		t.Fatal(err)
	}
	<-clk.fired
	select {
	case <-tr.Recv(1):
		t.Fatal("delivered before the modelled latency elapsed")
	default:
	}
	clk.Advance(2 * time.Microsecond)
	select {
	case <-tr.Recv(1):
	case <-time.After(time.Second):
		t.Fatal("not delivered after the latency elapsed: the link waited relative to the advanced clock")
	}
}

func TestChanTransportLocalBypass(t *testing.T) {
	// Local sends must bypass the latency model entirely: with a manual
	// clock that never advances, an hour of modelled latency would block
	// any message that touches the delay path.
	clk := clock.NewManual(time.Unix(0, 0))
	tr := NewChanTransportClock(nodes(1), UniformLatency(time.Hour, 0), clk)
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

func TestChanTransportAddNode(t *testing.T) {
	tr := NewChanTransport(nodes(1), nil)
	defer tr.Close()
	tr.AddNode(5)
	tr.AddNode(5) // idempotent
	if err := tr.Send(Message{From: 0, To: 5}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tr.Recv(5):
	case <-time.After(time.Second):
		t.Fatal("message to added node not delivered")
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
	tr := NewChanTransport(nodes(4), UniformLatency(10*time.Microsecond, 0))
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

func TestLatencyModelBandwidthTerm(t *testing.T) {
	lm := UniformLatency(time.Millisecond, 1e6) // 1 MB/s
	d := lm(0, 1, 1000)
	if d != time.Millisecond+time.Millisecond {
		t.Errorf("latency = %v, want 2ms", d)
	}
	lm0 := UniformLatency(time.Millisecond, 0)
	if lm0(0, 1, 1<<30) != time.Millisecond {
		t.Error("bandwidth term applied when disabled")
	}
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
	if tr.Recv(1) != nil {
		t.Error("Recv of foreign node returned a channel")
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

func ExampleUniformLatency() {
	lm := UniformLatency(100*time.Microsecond, 1.25e9) // ~10 GbE
	fmt.Println(lm(0, 1, 1250) > 100*time.Microsecond)
	// Output: true
}
