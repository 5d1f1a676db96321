package network

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/leaktest"
	"hermes/internal/tx"
)

// lossyInner wraps a ChanTransport with seeded loss on sequenced cross-node
// messages and on acks: each send is dropped with probability 1/3, each
// survivor duplicated with probability 1/5. The draws are random rather
// than "every 3rd send" because a strictly periodic pattern phase-locks
// with a retransmit round of constant length: a 50-message window plus its
// one coalesced ack is 51 sends, a multiple of 3, so the same message would
// be dropped in every round forever.
type lossyInner struct {
	*ChanTransport
	mu  sync.Mutex
	rng *rand.Rand
}

func newLossyInner(base *ChanTransport) *lossyInner {
	return &lossyInner{ChanTransport: base, rng: rand.New(rand.NewSource(1))}
}

func (l *lossyInner) Send(m Message) error {
	if m.From == m.To || m.Link == 0 && m.Type != MsgLinkAck {
		return l.ChanTransport.Send(m)
	}
	l.mu.Lock()
	drop, dup := l.rng.Intn(3) == 0, l.rng.Intn(5) == 0
	l.mu.Unlock()
	if drop {
		return nil // dropped on the floor
	}
	if dup {
		_ = l.ChanTransport.Send(m) // duplicated
	}
	return l.ChanTransport.Send(m)
}

func reliablePair(t *testing.T, lossy bool) (*Reliable, func()) {
	t.Helper()
	nodes := []tx.NodeID{0, 1}
	base := NewChanTransport(nodes, nil)
	var inner Transport = base
	if lossy {
		inner = newLossyInner(base)
	}
	r := NewReliable(inner, nodes)
	return r, r.Close
}

func TestReliableLossyLinkDeliversExactlyOnceInOrder(t *testing.T) {
	defer leaktest.Check(t)()
	r, closeR := reliablePair(t, true)
	defer closeR()

	const total = 200
	for i := 0; i < total; i++ {
		if err := r.Send(Message{
			From: 0, To: 1, Type: MsgRecordPush, Txn: tx.TxnID(i + 1),
		}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	inbox := r.Recv(1)
	for i := 0; i < total; i++ {
		select {
		case m := <-inbox:
			if got, want := m.Txn, tx.TxnID(i+1); got != want {
				t.Fatalf("message %d: got txn %d, want %d (order violated)", i, got, want)
			}
			if got, want := m.Link, uint64(i+1); got != want {
				t.Fatalf("message %d: got link seq %d, want %d", i, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d never delivered despite retransmission", i)
		}
	}
	select {
	case m := <-inbox:
		t.Fatalf("unexpected extra delivery: %+v", m)
	case <-time.After(200 * time.Millisecond):
	}
	st := r.Stats()
	if st.Retransmits == 0 {
		t.Fatal("lossy link produced no retransmissions")
	}
	if st.DupsDropped == 0 {
		t.Fatal("duplicating link produced no dropped duplicates")
	}
	if got := r.Delivered(1); got != total {
		t.Fatalf("Delivered(1) = %d, want %d", got, total)
	}
}

func TestReliablePauseRewindResumeRedelivers(t *testing.T) {
	defer leaktest.Check(t)()
	r, closeR := reliablePair(t, false)
	defer closeR()

	inbox := r.Recv(1)
	recv := func() Message {
		t.Helper()
		select {
		case m := <-inbox:
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("delivery timed out")
			return Message{}
		}
	}
	const total = 10
	for i := 0; i < total; i++ {
		if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: tx.TxnID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		recv()
	}
	if got := r.Delivered(1); got != total {
		t.Fatalf("Delivered(1) = %d, want %d", got, total)
	}

	// Crash window: pause, send more input (logged, not fed), rewind to a
	// mid-stream watermark, resume — the tail from the watermark on is
	// re-received in order, then the new input follows.
	r.Pause(1)
	for i := total; i < total+3; i++ {
		if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: tx.TxnID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	const watermark = 5
	if err := r.Rewind(1, watermark); err != nil {
		t.Fatal(err)
	}
	r.Resume(1)
	for i := watermark; i < total+3; i++ {
		if got, want := recv().Txn, tx.TxnID(i+1); got != want {
			t.Fatalf("redelivery: got txn %d, want %d", got, want)
		}
	}
	if got := r.Delivered(1); got != total+3 {
		t.Fatalf("Delivered(1) after catch-up = %d, want %d", got, total+3)
	}
}

func TestReliableTruncateDeliveredBoundsRewind(t *testing.T) {
	defer leaktest.Check(t)()
	r, closeR := reliablePair(t, false)
	defer closeR()

	inbox := r.Recv(1)
	const total = 8
	for i := 0; i < total; i++ {
		if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: tx.TxnID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		select {
		case <-inbox:
		case <-time.After(5 * time.Second):
			t.Fatal("delivery timed out")
		}
	}
	r.TruncateDelivered(1, 6)
	r.Pause(1)
	// Rewinding below the truncation base would silently skip the four
	// dropped messages — the replay would be incomplete, which for a
	// restarted node means divergent state. It must fail loudly instead.
	err := r.Rewind(1, 2)
	if err == nil {
		t.Fatal("Rewind below the truncation base succeeded; replay would silently skip truncated messages")
	}
	for _, want := range []string{"truncated at 6", "skip 4 messages"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Rewind error %q does not mention %q", err, want)
		}
	}
	// A rewind at (or above) the truncation base is still fine.
	if err := r.Rewind(1, 6); err != nil {
		t.Fatal(err)
	}
	r.Resume(1)
	for i := 6; i < total; i++ {
		select {
		case m := <-inbox:
			if got, want := m.Txn, tx.TxnID(i+1); got != want {
				t.Fatalf("got txn %d, want %d (truncation base not honored)", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("redelivery timed out")
		}
	}
	select {
	case m := <-inbox:
		t.Fatalf("unexpected delivery %+v after truncated redelivery", m)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestReliableRewindGuards(t *testing.T) {
	defer leaktest.Check(t)()
	r, closeR := reliablePair(t, false)
	defer closeR()

	// Rewinding a destination that was never paused must fail loudly: the
	// feeder would race the rewound cursor and replay messages into a node
	// that is still consuming live traffic.
	err := r.Rewind(1, 0)
	if err == nil {
		t.Fatal("Rewind of a running destination succeeded")
	}
	if !strings.Contains(err.Error(), "not paused") {
		t.Fatalf("Rewind error %q does not say the destination is not paused", err)
	}
	// Unknown destinations are reported too, pause state notwithstanding.
	if err := r.Rewind(99, 0); err == nil {
		t.Fatal("Rewind of an unknown destination succeeded")
	} else if !strings.Contains(err.Error(), "unknown destination 99") {
		t.Fatalf("Rewind error %q does not name the unknown destination", err)
	}
}

func TestReliableCloseWhilePausedAndBlocked(t *testing.T) {
	defer leaktest.Check(t)()
	r, _ := reliablePair(t, false)
	// Undrained feed (no consumer), one paused destination, pending
	// unacked traffic to a node that never acks back through a dead
	// pump — Close must still terminate everything.
	for i := 0; i < 4; i++ {
		if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: tx.TxnID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	r.Pause(1)
	done := make(chan struct{})
	go func() {
		r.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	if err := r.Send(Message{From: 0, To: 1}); err == nil {
		t.Fatal("Send after Close should error")
	}
}

func TestReliablePassThroughLocalAndUnsequenced(t *testing.T) {
	defer leaktest.Check(t)()
	nodes := []tx.NodeID{0, 1}
	base := NewChanTransport(nodes, nil)
	r := NewReliable(base, nodes)
	defer r.Close()

	// Local sends bypass sequencing but still arrive via the feeder.
	if err := r.Send(Message{From: 1, To: 1, Type: MsgControl, Txn: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-r.Recv(1):
		if m.Txn != 7 || m.Link != 0 {
			t.Fatalf("local message mangled: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("local delivery timed out")
	}
	// A sender outside the wrapper (unsequenced cross-node message
	// injected straight into the base transport) is delivered as-is.
	if err := base.Send(Message{From: 0, To: 1, Type: MsgControl, Txn: 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-r.Recv(1):
		if m.Txn != 9 || m.Link != 0 {
			t.Fatalf("unsequenced message mangled: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unsequenced delivery timed out")
	}
}

func TestReliableConcurrentSenders(t *testing.T) {
	defer leaktest.Check(t)()
	nodes := []tx.NodeID{0, 1, 2}
	base := NewChanTransport(nodes, nil)
	r := NewReliable(newLossyInner(base), nodes)
	defer r.Close()

	const per = 50
	for _, from := range []tx.NodeID{0, 2} {
		from := from
		go func() {
			for i := 0; i < per; i++ {
				_ = r.Send(Message{From: from, To: 1, Type: MsgRecordPush,
					Txn: tx.TxnID(i + 1), Seq: uint64(from)})
			}
		}()
	}
	// Per-sender FIFO must hold even with the two streams interleaving.
	nextWant := map[tx.NodeID]tx.TxnID{0: 1, 2: 1}
	for got := 0; got < 2*per; got++ {
		select {
		case m := <-r.Recv(1):
			if want := nextWant[m.From]; m.Txn != want {
				t.Fatalf("sender %d: got txn %d, want %d", m.From, m.Txn, want)
			}
			nextWant[m.From]++
		case <-time.After(10 * time.Second):
			t.Fatalf("delivery %d timed out", got)
		}
	}
}

func TestReliableStatsString(t *testing.T) {
	// MsgLinkAck must render for failure reports.
	if got := MsgLinkAck.String(); got != "LinkAck" {
		t.Fatalf("MsgLinkAck.String() = %q", got)
	}
	_ = fmt.Sprintf("%+v", ReliableStats{})
}

// TestRetransmitCapClampedToBase: an explicitly configured cap below the
// base is clamped up to the base (the cap bounds backoff and cannot sit
// under the starting interval) — never silently replaced by the in-process
// default.
func TestRetransmitCapClampedToBase(t *testing.T) {
	defer leaktest.Check(t)()
	nodes := []tx.NodeID{0, 1}
	tr := NewChanTransport(nodes, nil)
	r := NewReliableWith(tr, ReliableOpts{
		RecvFor:        nodes,
		SendTo:         nodes,
		RetransmitBase: 100 * time.Millisecond,
		RetransmitCap:  50 * time.Millisecond,
	})
	defer r.Close()
	if r.rtBase != 100*time.Millisecond || r.rtCap != 100*time.Millisecond {
		t.Fatalf("base/cap = %v/%v, want explicit cap below base clamped to base", r.rtBase, r.rtCap)
	}
}

// stubInner is an inner transport with one inbox the test fills by hand
// (before the pump starts, so what a drain sees is deterministic) and a
// record of everything the layer sent through it.
type stubInner struct {
	inbox chan Message
	sent  chan Message
}

func newStubInner(preload []Message) *stubInner {
	s := &stubInner{inbox: make(chan Message, len(preload)+8), sent: make(chan Message, len(preload)+8)}
	for _, m := range preload {
		s.inbox <- m
	}
	return s
}

func (s *stubInner) Send(m Message) error          { s.sent <- m; return nil }
func (s *stubInner) Recv(tx.NodeID) <-chan Message { return s.inbox }
func (s *stubInner) Close()                        {}

func (s *stubInner) nextSent(t *testing.T) Message {
	t.Helper()
	select {
	case m := <-s.sent:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("the reliable layer sent nothing")
		return Message{}
	}
}

func (s *stubInner) assertNothingSent(t *testing.T) {
	t.Helper()
	select {
	case m := <-s.sent:
		t.Fatalf("unexpected send: %+v", m)
	default:
	}
}

// sequenced returns n in-order messages from sender to node 0, links 1..n.
func sequenced(sender tx.NodeID, n int) []Message {
	ms := make([]Message, n)
	for i := range ms {
		ms[i] = Message{From: sender, To: 0, Type: MsgRecordPush, Link: uint64(i + 1), Txn: tx.TxnID(i + 1)}
	}
	return ms
}

// TestReliableCoalescesAcksPerDrain: a drain that finds 32 messages from
// one sender and 8 from another queued answers with one cumulative ack
// each, delivers in arrival order, and a later drain of nothing but a
// duplicate still acks.
func TestReliableCoalescesAcksPerDrain(t *testing.T) {
	defer leaktest.Check(t)()
	a, b := sequenced(1, 32), sequenced(2, 8)
	var arrival []Message
	for i := range a { // interleave: four from sender 1, then one from sender 2
		arrival = append(arrival, a[i])
		if i%4 == 3 {
			arrival = append(arrival, b[i/4])
		}
	}
	inner := newStubInner(arrival)
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}, SendTo: []tx.NodeID{1, 2}})
	defer r.Close()

	for i, want := range arrival {
		select {
		case got := <-r.Recv(0):
			if got.From != want.From || got.Link != want.Link {
				t.Fatalf("delivery %d = from %d link %d, want from %d link %d", i, got.From, got.Link, want.From, want.Link)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d timed out", i)
		}
	}
	wantLink := map[tx.NodeID]uint64{1: 32, 2: 8}
	for i := 0; i < 2; i++ {
		ack := inner.nextSent(t)
		if ack.Type != MsgLinkAck || ack.From != 0 || ack.Link != wantLink[ack.To] {
			t.Fatalf("ack %+v, want one cumulative LinkAck per sender carrying %v", ack, wantLink)
		}
		delete(wantLink, ack.To)
	}
	inner.assertNothingSent(t)
	if got := r.Stats().Acks; got != 2 {
		t.Fatalf("Acks = %d for 40 messages from 2 senders in one drain, want 2", got)
	}

	inner.inbox <- a[4] // a retransmission whose original ack may have been lost
	if ack := inner.nextSent(t); ack.Type != MsgLinkAck || ack.To != 1 || ack.Link != 32 {
		t.Fatalf("a drain of one duplicate sent %+v, want LinkAck 32 to node 1", ack)
	}
	if st := r.Stats(); st.DupsDropped != 1 || st.Acks != 3 {
		t.Fatalf("stats after the duplicate = %+v, want 1 dup dropped and 3 acks", st)
	}
}

// TestReliableAckGateWithholdsCoalescedAcks: the drain's flush goes through
// the AckGate like the per-message ack did — nothing is acked until the
// gate runs the callback.
func TestReliableAckGateWithholdsCoalescedAcks(t *testing.T) {
	defer leaktest.Check(t)()
	inner := newStubInner(sequenced(1, 16))
	gated := make(chan func(), 4)
	r := NewReliableWith(inner, ReliableOpts{
		RecvFor: []tx.NodeID{0}, SendTo: []tx.NodeID{1},
		AckGateFor: func(tx.NodeID) func(func()) { return func(release func()) { gated <- release } },
	})
	defer r.Close()

	var release func()
	select {
	case release = <-gated:
	case <-time.After(5 * time.Second):
		t.Fatal("the drain never reached the ack gate")
	}
	inner.assertNothingSent(t)
	if got := r.Stats().Acks; got != 0 {
		t.Fatalf("Acks = %d while the gate withholds", got)
	}
	release()
	if ack := inner.nextSent(t); ack.Type != MsgLinkAck || ack.Link != 16 {
		t.Fatalf("released ack = %+v, want LinkAck 16", ack)
	}
}

// TestReliableDrainBound: an inbox that never runs empty — here, preloaded
// past three bounds — still acks once per maxDrain messages, so a saturated
// receiver keeps its senders' windows moving.
func TestReliableDrainBound(t *testing.T) {
	defer leaktest.Check(t)()
	const n = 3*maxDrain + 10
	inner := newStubInner(sequenced(1, n))
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}, SendTo: []tx.NodeID{1}})
	defer r.Close()
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for i := 0; i < n; i++ {
			<-r.Recv(0)
		}
	}()
	for _, want := range []uint64{maxDrain, 2 * maxDrain, 3 * maxDrain, n} {
		if ack := inner.nextSent(t); ack.Type != MsgLinkAck || ack.Link != want {
			t.Fatalf("ack %+v, want LinkAck %d", ack, want)
		}
	}
	<-consumed
}

// TestReliableAckingAPrefixDoesNotAllocate: an ack that retires part of the
// unacked window shifts the rest in place.
func TestReliableAckingAPrefixDoesNotAllocate(t *testing.T) {
	inner := newStubInner(nil)
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}, SendTo: []tx.NodeID{1}})
	defer r.Close()
	const window = 64
	sl := &sendLink{unacked: make([]unackedMsg, 0, window)}
	r.sends[[2]tx.NodeID{0, 1}] = sl
	base := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		sl.acked, sl.unacked = base, sl.unacked[:window]
		for i := range sl.unacked {
			sl.unacked[i].m.Link = base + uint64(i) + 1
		}
		r.handle(r.dests[0], Message{From: 1, To: 0, Type: MsgLinkAck, Link: base + window/2})
		if len(sl.unacked) != window/2 || sl.unacked[0].m.Link != base+window/2+1 {
			t.Fatalf("window after the ack: %d left, first link %d", len(sl.unacked), sl.unacked[0].m.Link)
		}
		base += window
	})
	if allocs != 0 {
		t.Fatalf("acking half of a %d-message window allocated %.0f times, want 0", window, allocs)
	}
}
