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

// delivered returns node's delivery watermark: the absolute count of
// messages handed to its consumer.
func delivered(r *Reliable, node tx.NodeID) uint64 {
	ds := r.dests[node]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.next
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
	if got := delivered(r, 1); got != total {
		t.Fatalf("watermark = %d, want %d", got, total)
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
	// A floor at the start, as a checkpoint there would set: without one
	// the log drops each message once it is taken, and nothing can rewind.
	r.TruncateDelivered(1, 0)
	const total = 10
	for i := 0; i < total; i++ {
		if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: tx.TxnID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		recv()
	}
	if got := delivered(r, 1); got != total {
		t.Fatalf("watermark = %d, want %d", got, total)
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
	if got := delivered(r, 1); got != total+3 {
		t.Fatalf("watermark after catch-up = %d, want %d", got, total+3)
	}
}

func TestReliableTruncateDeliveredBoundsRewind(t *testing.T) {
	defer leaktest.Check(t)()
	r, closeR := reliablePair(t, false)
	defer closeR()

	inbox := r.Recv(1)
	r.TruncateDelivered(1, 0) // an earlier checkpoint's floor
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

// TestReliableKeepsFramesOnlyFromTheFloor pins the delivery log's
// retention: without a floor it holds no message the consumer has taken,
// and with one it holds exactly the messages from the floor on.
func TestReliableKeepsFramesOnlyFromTheFloor(t *testing.T) {
	defer leaktest.Check(t)()
	r, closeR := reliablePair(t, false)
	defer closeR()

	inbox := r.Recv(1)
	pass := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: tx.TxnID(i + 1)}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-inbox:
			case <-time.After(5 * time.Second):
				t.Fatal("delivery timed out")
			}
		}
	}
	// The feeder drops a taken message the next time it locks the log,
	// just after the handoff, so the check waits for it.
	ds := r.dests[1]
	holds := func(base uint64, n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			ds.mu.Lock()
			gotBase, gotN := ds.base, len(ds.log)
			ds.mu.Unlock()
			if gotBase == base && gotN == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("log holds %d messages from %d, want %d from %d", gotN, gotBase, n, base)
			}
		}
	}
	pass(0, 10)
	holds(10, 0)
	// A floor cannot go below what is already gone.
	if floor := r.TruncateDelivered(1, 4); floor != 10 {
		t.Fatalf("floor = %d, want 10", floor)
	}
	pass(10, 16)
	holds(10, 6)
	if floor := r.TruncateDelivered(1, 13); floor != 13 {
		t.Fatalf("floor = %d, want 13", floor)
	}
	holds(13, 3)
	pass(16, 18)
	holds(13, 5)
}

// TestReliableDeliveryLogReusesItsArray pins that dropping taken messages
// allocates nothing, however many untaken ones wait behind them: the cost
// of a delivery must not depend on how far the consumer lags.
func TestReliableDeliveryLogReusesItsArray(t *testing.T) {
	for _, backlog := range []int{1, 2, 5, 64} {
		ds := &destState{}
		for i := 0; i < backlog; i++ {
			ds.log = append(ds.log, Message{})
		}
		// One delivery and one handoff per step, so the backlog holds.
		steps := func() {
			for i := 0; i < 100; i++ {
				ds.log = append(ds.log, Message{Type: MsgRecordPush})
				ds.next++
				ds.dropTaken()
			}
		}
		steps()
		if a := testing.AllocsPerRun(20, steps); a != 0 {
			t.Errorf("backlog %d: %.0f allocations per 100 deliveries, want 0", backlog, a)
		}
		if got := ds.base + uint64(len(ds.log)) - ds.next; got != uint64(backlog) {
			t.Fatalf("backlog %d: %d messages untaken", backlog, got)
		}
		if taken := ds.next - ds.base; taken > uint64(backlog) {
			t.Errorf("backlog %d: log still holds %d taken messages", backlog, taken)
		}
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

// streamRounds sends total messages from node 0 to node 1 in rounds of
// 100, gap apart — a steady stream, so the link has acks to measure — while
// a consumer drains node 1. It returns once everything was delivered, in
// order, and how long that took from the first send.
func streamRounds(t *testing.T, r *Reliable, total int, gap time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			select {
			case m := <-r.Recv(1):
				if m.Txn != tx.TxnID(i+1) {
					done <- fmt.Errorf("delivery %d: got txn %d", i, m.Txn)
					return
				}
			case <-time.After(10 * time.Second):
				done <- fmt.Errorf("delivery %d never arrived", i)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < total; i++ {
		if i > 0 && i%100 == 0 {
			time.Sleep(gap)
		}
		if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: tx.TxnID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// waitAcked waits until every frame r sent has been acknowledged.
func waitAcked(t *testing.T, r *Reliable) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if unacked, _ := r.Depths(); unacked == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("frames still unacknowledged after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReliablePacesToGatedAcks: a receiver that acknowledges 80 ms after
// each drain (a slow group-commit fsync, say) is slow, not lossy — and
// slower than the link's 50 ms floor. Once a warm-up round has shown the
// link that round trip, it waits it out instead of resending: at most 1% of
// the stream after the warm-up may be retransmitted. A fixed 2 ms
// retransmit base resends most of it, and so would the floor alone.
func TestReliablePacesToGatedAcks(t *testing.T) {
	defer leaktest.Check(t)()
	nodes := []tx.NodeID{0, 1}
	var gates sync.WaitGroup
	defer gates.Wait()
	r := NewReliableWith(NewChanTransport(nodes, nil), ReliableOpts{
		RecvFor: nodes,
		AckGateFor: func(tx.NodeID) func(func()) {
			return func(send func()) {
				gates.Add(1)
				time.AfterFunc(80*time.Millisecond, func() { send(); gates.Done() })
			}
		},
	})
	defer r.Close()

	streamRounds(t, r, 100, 5*time.Millisecond)
	waitAcked(t, r)
	warmup := r.Stats().Retransmits

	const total = 2000
	streamRounds(t, r, total, 5*time.Millisecond)
	waitAcked(t, r)
	if got := r.Stats().Retransmits - warmup; got > total/100 {
		t.Fatalf("%d of %d messages retransmitted behind 80ms ack gates, want at most %d", got, total, total/100)
	}
}

// dropInner drops each sequenced message and each ack with probability
// 1/20, from a fixed seed.
type dropInner struct {
	*ChanTransport
	mu  sync.Mutex
	rng *rand.Rand
}

func (d *dropInner) Send(m Message) error {
	if m.From != m.To && (m.Link != 0 || m.Type == MsgLinkAck) {
		d.mu.Lock()
		drop := d.rng.Intn(20) == 0
		d.mu.Unlock()
		if drop {
			return nil
		}
	}
	return d.ChanTransport.Send(m)
}

// TestReliableRepairsSeededDrops: over a link that loses 5% of messages and
// acks, the stream still arrives whole and in order, and repair stays
// quick: a loss inside the stream is resent on the receiver's gap report
// rather than after a timeout, so 2,000 messages take a small multiple of
// the 35 ms a 2 ms fixed retransmit base needed.
func TestReliableRepairsSeededDrops(t *testing.T) {
	defer leaktest.Check(t)()
	nodes := []tx.NodeID{0, 1}
	r := NewReliable(&dropInner{ChanTransport: NewChanTransport(nodes, nil), rng: rand.New(rand.NewSource(5))}, nodes)
	defer r.Close()

	const total = 2000
	took := streamRounds(t, r, total, time.Millisecond)
	if took > 250*time.Millisecond {
		t.Fatalf("delivering %d messages over a 5%%-drop link took %v, want under 250ms", total, took)
	}
	if r.Stats().Retransmits == 0 {
		t.Fatal("a lossy link produced no retransmissions")
	}
	t.Logf("%d messages over a 5%%-drop link in %v, %d retransmits", total, took, r.Stats().Retransmits)
}

// dropFirstInner drops the first n transmissions of link frame 3.
type dropFirstInner struct {
	*ChanTransport
	mu sync.Mutex
	n  int
}

func (d *dropFirstInner) Send(m Message) error {
	if m.Link == 3 && m.Type != MsgLinkAck {
		d.mu.Lock()
		drop := d.n > 0
		d.n--
		d.mu.Unlock()
		if drop {
			return nil
		}
	}
	return d.ChanTransport.Send(m)
}

// TestReliableResendsReportedGap: a frame lost inside a stream is resent as
// soon as the receiver's ack reports the gap behind it, and so is a lost
// resend, once a frame sent after it arrives. Nothing else is resent: a
// timeout would resend every frame held behind the gap too.
func TestReliableResendsReportedGap(t *testing.T) {
	defer leaktest.Check(t)()
	nodes := []tx.NodeID{0, 1}
	r := NewReliable(&dropFirstInner{ChanTransport: NewChanTransport(nodes, nil), n: 2}, nodes)
	defer r.Close()

	got := make(chan tx.TxnID, 20)
	go func() {
		for i := 0; i < 20; i++ {
			got <- (<-r.Recv(1)).Txn
		}
	}()
	send := func(from, to int) {
		for i := from; i <= to; i++ {
			if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: tx.TxnID(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Frame 3's first copy is lost, and so is the copy the first gap report
	// triggers; frames 11..20, sent after that resend, prove it lost.
	send(1, 10)
	deadline := time.Now().Add(time.Second)
	for r.Stats().Retransmits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the first gap report resent nothing")
		}
		time.Sleep(100 * time.Microsecond)
	}
	send(11, 20)
	for i := 1; i <= 20; i++ {
		select {
		case txn := <-got:
			if txn != tx.TxnID(i) {
				t.Fatalf("delivery %d: got txn %d", i, txn)
			}
		case <-time.After(time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
	}
	if n := r.Stats().Retransmits; n != 2 {
		t.Fatalf("%d retransmits, want exactly the 2 resends of frame 3", n)
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
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}})
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
		RecvFor:    []tx.NodeID{0},
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
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}})
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
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}})
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

// TestReliableFloorsOnlyForJournaledDestinations: one reliable layer
// receives for A, whose journal and checkpoint floors it is given, and for
// B, which has neither (a leader co-hosted beside a worker). A's floor
// drops S's already-checkpointed frames as duplicates; B starts S's link
// fresh, delivering its first frame without journaling it.
func TestReliableFloorsOnlyForJournaledDestinations(t *testing.T) {
	defer leaktest.Check(t)()
	const s, a, b tx.NodeID = 0, 1, 2
	inner := NewChanTransport([]tx.NodeID{s, a, b}, nil)
	var mu sync.Mutex
	var journaled []Message
	r := NewReliableWith(inner, ReliableOpts{
		RecvFor: []tx.NodeID{a, b},
		JournalFor: func(id tx.NodeID) func(Message) {
			if id != a {
				return nil
			}
			return func(m Message) {
				mu.Lock()
				journaled = append(journaled, m)
				mu.Unlock()
			}
		},
		Floors: map[tx.NodeID]LinkFloor{s: {Inc: 1, Link: 5}},
	})
	defer r.Close()
	for _, m := range []Message{
		{From: s, To: b, Type: MsgSeqForward, Link: 1, Inc: 1},
		{From: s, To: a, Type: MsgSeqDeliver, Link: 5, Inc: 1}, // below A's floor
		{From: s, To: a, Type: MsgSeqDeliver, Link: 6, Inc: 1},
	} {
		if err := inner.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []struct {
		to   tx.NodeID
		link uint64
	}{{b, 1}, {a, 6}} {
		select {
		case m := <-r.Recv(want.to):
			if m.Link != want.link {
				t.Fatalf("node %d received link %d, want %d", want.to, m.Link, want.link)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("node %d never received link %d from S", want.to, want.link)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(journaled) != 1 || journaled[0].To != a || journaled[0].Link != 6 {
		t.Fatalf("journaled %+v, want only A's link-6 frame", journaled)
	}
	if st := r.Stats(); st.DupsDropped != 1 {
		t.Fatalf("dups dropped = %d, want 1 (A's link 5, under its floor)", st.DupsDropped)
	}
}

// TestReliablePiggybacksOwedAck: an ack without a gap report is parked,
// and the next data frame back to its sender carries it; no standalone
// MsgLinkAck is sent. The test plays the pump's part on a destination
// whose inbox stays empty, so its pump never arms the ackDelay timer.
func TestReliablePiggybacksOwedAck(t *testing.T) {
	defer leaktest.Check(t)()
	inner := newStubInner(nil)
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}, Incarnation: 2})
	defer r.Close()
	ds := r.dests[0]
	for _, m := range sequenced(1, 3) {
		m.Inc = 5
		r.handle(ds, m)
	}
	r.flushAcks(ds, false)
	inner.assertNothingSent(t)

	if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: 9}); err != nil {
		t.Fatal(err)
	}
	m := inner.nextSent(t)
	if m.Type != MsgRecordPush || m.Link != 1 || m.Inc != 2 || m.Ack != 3 || m.AckInc != 5 {
		t.Fatalf("data frame %+v, want link 1 of incarnation 2 carrying Ack 3 / AckInc 5", m)
	}
	if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: 10}); err != nil {
		t.Fatal(err)
	}
	if m := inner.nextSent(t); m.Ack != 0 || m.AckInc != 0 {
		t.Fatalf("second frame %+v carries the ack again", m)
	}
	time.Sleep(5 * ackDelay)
	inner.assertNothingSent(t)
	if st := r.Stats(); st.Piggybacked != 1 || st.Acks != 0 {
		t.Fatalf("stats %+v, want 1 piggybacked ack and no standalone one", st)
	}
	// The retransmission copy carries no ack either.
	r.mu.Lock()
	sl := r.sends[[2]tx.NodeID{0, 1}]
	r.mu.Unlock()
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if u := sl.unacked[0].m; u.Ack != 0 || u.AckInc != 0 {
		t.Fatalf("buffered copy %+v carries the ack", u)
	}
}

// TestReliablePiggybackedAckIsApplied: an ack riding a data frame retires
// the window like a standalone one, is stripped before delivery, and
// leaves the last gap report standing, since it carries none.
func TestReliablePiggybackedAckIsApplied(t *testing.T) {
	defer leaktest.Check(t)()
	inner := newStubInner(nil)
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}, Incarnation: 4})
	defer r.Close()
	for i := 1; i <= 6; i++ {
		if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush, Txn: tx.TxnID(i)}); err != nil {
			t.Fatal(err)
		}
		inner.nextSent(t)
	}
	ds := r.dests[0]
	// Node 1 has 1 and 2, misses 3, and holds 4 to 5.
	r.handle(ds, Message{From: 1, To: 0, Type: MsgLinkAck, Link: 2, Inc: 4, Seq: 4, Txn: 5})
	r.handle(ds, Message{From: 1, To: 0, Type: MsgSeqDeliver, Link: 1, Inc: 7, Ack: 2, AckInc: 4})
	r.mu.Lock()
	sl := r.sends[[2]tx.NodeID{0, 1}]
	r.mu.Unlock()
	sl.mu.Lock()
	held, heldTop, window := sl.held, sl.heldTop, len(sl.unacked)
	sl.mu.Unlock()
	if held != 4 || heldTop != 5 || window != 4 {
		t.Fatalf("after a piggybacked ack: held %d..%d, %d unacked; want the report 4..5 kept and 4 unacked", held, heldTop, window)
	}
	r.handle(ds, Message{From: 1, To: 0, Type: MsgSeqDeliver, Link: 2, Inc: 7, Ack: 5, AckInc: 4})
	sl.mu.Lock()
	window = len(sl.unacked)
	sl.mu.Unlock()
	if window != 1 {
		t.Fatalf("%d unacked after Ack 5, want 1", window)
	}
	for link := uint64(1); link <= 2; link++ {
		select {
		case m := <-r.Recv(0):
			if m.Link != link || m.Ack != 0 || m.AckInc != 0 {
				t.Fatalf("delivered %+v, want link %d with the ack stripped", m, link)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("link %d never delivered", link)
		}
	}
}

// TestReliableParkedAckLeavesAfterAckDelay: with no data going back to the
// sender, the parked ack leaves as a standalone MsgLinkAck once ackDelay
// has passed, and not before.
func TestReliableParkedAckLeavesAfterAckDelay(t *testing.T) {
	defer leaktest.Check(t)()
	start := time.Now()
	inner := newStubInner(sequenced(1, 3))
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}})
	defer r.Close()
	ack := inner.nextSent(t)
	waited := time.Since(start)
	if ack.Type != MsgLinkAck || ack.To != 1 || ack.Link != 3 || ack.Seq != 0 {
		t.Fatalf("sent %+v, want a standalone LinkAck 3 to node 1", ack)
	}
	if waited < ackDelay || waited > time.Second {
		t.Fatalf("the ack left after %v, want it parked for ackDelay (%v) and then sent", waited, ackDelay)
	}
	if st := r.Stats(); st.Acks != 1 || st.Piggybacked != 0 {
		t.Fatalf("stats %+v, want 1 standalone ack", st)
	}
}

// TestReliableGapReportIsNeverParked: an ack that reports a gap leaves at
// once as a MsgLinkAck naming the held frames, even though a data frame
// back to the sender follows; the data frame carries no ack.
func TestReliableGapReportIsNeverParked(t *testing.T) {
	defer leaktest.Check(t)()
	ms := sequenced(1, 5)
	inner := newStubInner([]Message{ms[0], ms[1], ms[3], ms[4]})
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}})
	defer r.Close()
	ack := inner.nextSent(t)
	if ack.Type != MsgLinkAck || ack.Link != 2 || ack.Seq != 4 || ack.Txn != 5 {
		t.Fatalf("sent %+v, want LinkAck 2 reporting frames 4..5 held", ack)
	}
	if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush}); err != nil {
		t.Fatal(err)
	}
	if m := inner.nextSent(t); m.Type != MsgRecordPush || m.Ack != 0 {
		t.Fatalf("data frame %+v carries an ack the gap report already sent", m)
	}
	if st := r.Stats(); st.Acks != 1 || st.Piggybacked != 0 {
		t.Fatalf("stats %+v, want the one standalone gap report", st)
	}
}

// TestReliableGatedAckNeitherRidesNorLeavesEarly: while the durability
// gate holds an ack, a data frame back to its sender must not carry it and
// no standalone ack may leave; once released, the ack is parked and goes
// out on its own after ackDelay.
func TestReliableGatedAckNeitherRidesNorLeavesEarly(t *testing.T) {
	defer leaktest.Check(t)()
	inner := newStubInner(sequenced(1, 4))
	gated := make(chan func(), 4)
	r := NewReliableWith(inner, ReliableOpts{
		RecvFor:    []tx.NodeID{0},
		AckGateFor: func(tx.NodeID) func(func()) { return func(release func()) { gated <- release } },
	})
	defer r.Close()
	var release func()
	select {
	case release = <-gated:
	case <-time.After(5 * time.Second):
		t.Fatal("the drain never reached the ack gate")
	}
	if err := r.Send(Message{From: 0, To: 1, Type: MsgRecordPush}); err != nil {
		t.Fatal(err)
	}
	if m := inner.nextSent(t); m.Type != MsgRecordPush || m.Ack != 0 {
		t.Fatalf("data frame %+v carries an ack the gate still holds", m)
	}
	time.Sleep(5 * ackDelay)
	inner.assertNothingSent(t)
	released := time.Now()
	release()
	ack := inner.nextSent(t)
	if ack.Type != MsgLinkAck || ack.Link != 4 {
		t.Fatalf("released ack = %+v, want LinkAck 4", ack)
	}
	if waited := time.Since(released); waited < ackDelay {
		t.Fatalf("the released ack left after %v, before ackDelay", waited)
	}
}

// TestReliablePiggybackedAckWidens: a piggybacked ack carries the low 32
// bits of the acknowledged sequence, and the sender widens them against
// its window, across a 2^32 boundary too. Low bits from below the window
// (a stale ack), an ack for another incarnation, and an ack that does not
// fit a data frame are not taken.
func TestReliablePiggybackedAckWidens(t *testing.T) {
	inner := newStubInner(nil)
	r := NewReliableWith(inner, ReliableOpts{RecvFor: []tx.NodeID{0}, Incarnation: 3})
	defer r.Close()
	const base = 1<<32 - 4
	sl := &sendLink{acked: base, nextSeq: base + 8}
	for l := uint64(base + 1); l <= base+8; l++ {
		sl.unacked = append(sl.unacked, unackedMsg{m: Message{Link: l}})
	}
	r.sends[[2]tx.NodeID{0, 1}] = sl
	ds := r.dests[0]
	deliver := func(ack uint64, inc uint16) {
		r.handle(ds, Message{From: 1, To: 0, Type: MsgRecordPush, Link: 1, Inc: 9, Ack: uint32(ack), AckInc: inc})
	}
	deliver(base+6, 3) // low bits 2: the window's base+6, past the boundary
	if sl.acked != base+6 || len(sl.unacked) != 2 {
		t.Fatalf("acked %d with %d unacked, want %d with 2", sl.acked, len(sl.unacked), uint64(base+6))
	}
	deliver(base+5, 3) // below the window now: stale
	deliver(base+8, 2) // another incarnation
	if sl.acked != base+6 || len(sl.unacked) != 2 {
		t.Fatalf("a stale or foreign piggybacked ack moved the window to %d", sl.acked)
	}
	deliver(base+8, 3)
	if sl.acked != base+8 || len(sl.unacked) != 0 {
		t.Fatalf("acked %d with %d unacked, want %d with none", sl.acked, len(sl.unacked), uint64(base+8))
	}

	for _, a := range []struct{ link, inc uint64 }{{1 << 32, 3}, {7, 1 << 16}} {
		ds.park(1, a.link, a.inc)
		if _, ok := ds.takeAck(1); ok {
			t.Fatalf("ack %+v does not fit a data frame but was taken", a)
		}
		ds.parked = map[tx.NodeID]parkedAck{}
	}
}
