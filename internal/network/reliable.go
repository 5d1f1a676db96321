package network

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/tx"
)

// maxDrain bounds one pump drain, so that a saturated inbox still acks —
// and moves its senders' retransmit windows — every 64 messages.
const maxDrain = 64

// Retransmission pacing: every sendLink times its resends with an RTO fed
// one sample per cumulative ack — the age of the oldest frame the ack
// covers, unless the covered range holds a resent frame (Karn's rule).
// The timeout only guards against a silent link; a frame lost in the
// middle of a stream is resent on the receiver's gap report instead (see
// handle), as TCP's fast retransmit sits beside its RTO.
//   - The floor (also the timeout before the first sample) is 50 ms. Ack
//     rounds over loopback TCP are heavy-tailed: well under a millisecond
//     at the median, tens of milliseconds when four processes share two
//     cores, so an estimate that follows the median times out on healthy
//     links. On 2 vCPUs shared by a three-process cluster, this code
//     with a 2 ms floor resent 17–21 frames per 1,000 transactions in
//     each of three traced cluster-ycsb passes, every one a duplicate;
//     with 50 ms, three cluster-ycsb and three cluster-durable passes
//     resent none (docs/PERF.md, "Pacing").
//   - The ceiling is the largest cap ever configured for a cluster link
//     (1 s): a partitioned link probes at least once a second, so a healed
//     one resumes within a second.
const (
	linkRTOFloor = 50 * time.Millisecond
	linkRTOCeil  = time.Second
)

// ackDelay is how long a parked ack waits for a data frame on the reverse
// link to carry it (Message.Ack) before it leaves as a standalone
// MsgLinkAck. It delays the sender's window by at most that much, well
// below the 50 ms RTO floor, so a parked ack never causes a resend.
const ackDelay = 2 * time.Millisecond

// ReliableStats reports how hard the reliable layer had to work.
type ReliableStats struct {
	// Retransmits counts messages re-sent, on a timeout or a gap report.
	Retransmits int64
	// DupsDropped counts received messages discarded as duplicates.
	DupsDropped int64
	// Acks counts standalone cumulative link acknowledgements sent
	// (MsgLinkAck frames).
	Acks int64
	// Piggybacked counts cumulative acknowledgements carried on data frames
	// instead (Message.Ack).
	Piggybacked int64
}

// Reliable provides the Transport contract — per-link FIFO order, no loss,
// no duplication — on top of an inner transport that may drop or duplicate
// messages (the chaos link model's DropProb/DupProb faults, a flaky socket).
// Mechanism, per (from,to) link: the sender stamps each message with a
// dense sequence number (Message.Link), buffers it until acknowledged, and
// retransmits frames left unacknowledged past the link's retransmission
// timeout, which it measures from the acks themselves (RTO); the receiver
// delivers in sequence, buffers the future, discards duplicates, and
// returns cumulative acknowledgements — one per sender per drain of its
// inbox, not one per message (see pumpLoop), each naming the frames it
// holds beyond a gap — which may themselves be lost or duplicated: the
// protocol only needs them to eventually arrive. An ack without a gap to
// report rides the next data frame back to its sender when one leaves
// within ackDelay, and goes as a MsgLinkAck of its own otherwise.
//
// Reliable additionally keeps a per-destination delivery log: every message
// is appended to its destination's log before the destination's pump offers
// it to the consumer, and the log survives the consumer. This is what makes
// live node restart possible (§4.3): from the floor a checkpoint sets
// (TruncateDelivered) on, the delivery log is the node's durable
// totally-ordered input record — like the paper's command log, but covering
// record pushes and write-backs too — so a restarted node catches up by
// rewinding its cursor to the checkpoint's watermark and re-receiving
// history, while Pause/Resume model the crash window. Before a destination
// has a floor nothing could rewind it, so each message leaves its log once
// the consumer has taken it. The layer itself is modeled as durable (it
// keeps acking and logging while the node is down), exactly as the paper
// assumes of its logging tier.
type Reliable struct {
	inner Transport

	mu     sync.Mutex
	sends  map[[2]tx.NodeID]*sendLink
	closed bool

	// dests is built once at construction and never mutated after.
	dests map[tx.NodeID]*destState

	// inc is this sender's incarnation, stamped on every sequenced send.
	// See Message.Inc. Immutable after construction.
	inc uint64

	quit chan struct{}
	wg   sync.WaitGroup

	retransmits atomic.Int64
	dupDropped  atomic.Int64
	acks        atomic.Int64
	piggybacked atomic.Int64
}

// sendLink is the sender half of one (from,to) link.
type sendLink struct {
	// sendMu orders the link's transmissions: each takes its stamp and
	// reaches the inner transport under it, so over a FIFO transport the
	// peer receives frames in stamp order. That is what lets a gap report
	// tell a lost frame from one still in flight.
	sendMu sync.Mutex

	mu      sync.Mutex
	stamp   uint64 // last transmission's stamp, counting resends
	nextSeq uint64 // last assigned sequence (first message gets 1)
	acked   uint64 // highest cumulative ack received
	held    uint64 // lowest frame the peer last reported holding past a gap (0: none)
	heldTop uint64 // highest such frame
	unacked []unackedMsg
	rto     RTO
	kick    chan struct{} // wakes the retransmit loop when work appears
	gap     chan struct{} // wakes it when the peer reports a gap
}

// unackedMsg is one in-flight message plus its last transmission's time
// and stamp and whether it was ever resent. The retransmit loop resends
// only messages that have aged past the current timeout: when the
// receiver gates acks behind a group-commit fsync (Journal.AfterDurable),
// the whole window is legitimately unacked for a few milliseconds at a
// time, and resending fresh frames on every silent round turns that ack
// latency into a duplicate storm that costs more CPU than the fsync it is
// waiting for.
type unackedMsg struct {
	m      Message
	sentAt time.Time
	stamp  uint64
	resent bool
}

// recvLink is the receiver half of one (from,to) link. It is owned by the
// destination's pump goroutine, so it needs no lock.
type recvLink struct {
	inc      uint64 // sender incarnation the link numbering belongs to
	expected uint64 // sequence of the next in-order message
	future   map[uint64]Message
}

func newRecvLink(inc, expected uint64) *recvLink {
	return &recvLink{inc: inc, expected: expected, future: make(map[uint64]Message)}
}

// destState is one destination's delivery log and consumer feed.
type destState struct {
	node tx.NodeID
	recv map[tx.NodeID]*recvLink // sender -> dedup state (pump-owned)
	owed []tx.NodeID             // senders heard from since the last flushAcks (pump-owned)

	mu       sync.Mutex
	log      []Message
	base     uint64 // absolute position of log[0] (advances on truncation)
	floored  bool   // a checkpoint keeps log[0:] for Rewind (see TruncateDelivered)
	next     uint64 // absolute position of the next message to hand out
	gen      uint64 // bumped by Rewind so a racing handoff can't advance next
	paused   bool
	pauseSig chan struct{} // closed while paused; fresh channel when running
	out      chan Message  // unbuffered consumer channel (Recv)

	// journal, when set, persists each accepted message (Append, called
	// from the pump in delivery order *before* the message joins the
	// in-memory log) and holds every ack until the frames it covers are
	// durable (AfterDurable) — so a crash cannot lose acknowledged input.
	journal Durability

	// parked holds, per sender, the ack this destination owes it that no
	// data frame has carried yet. Send takes it onto the next frame back;
	// the pump sends what is still here ackDelay after it was parked.
	ackMu  sync.Mutex
	parked map[tx.NodeID]parkedAck
	kick   chan struct{} // cap-1: wakes the pump (an ack released, a Resume)
}

// Durability is a destination's journal as the reliable layer uses it:
// Append persists one accepted message before it becomes acknowledgeable,
// and AfterDurable runs fn once everything appended so far is durable
// under the journal's fsync policy. *Journal implements it.
type Durability interface {
	Append(Message)
	AfterDurable(fn func())
}

// parkedAck is a cumulative ack waiting for a ride: link and inc as in a
// MsgLinkAck's Link and Inc, at when it was first parked.
type parkedAck struct {
	link, inc uint64
	at        time.Time
}

// NewReliable wraps inner with reliable delivery for the given nodes.
func NewReliable(inner Transport, nodes []tx.NodeID) *Reliable {
	return NewReliableWith(inner, ReliableOpts{RecvFor: nodes})
}

// ReliableOpts configures NewReliableWith beyond the symmetric in-process
// default.
type ReliableOpts struct {
	// RecvFor lists the destinations whose inboxes this layer consumes and
	// delivers for (one per in-process node; the ids a cluster process
	// hosts). Sends are sequenced to every destination but the sender.
	RecvFor []tx.NodeID
	// Incarnation is stamped on every sequenced send (see Message.Inc).
	// A cluster process bumps it on each restart; in-process it stays 0.
	Incarnation uint64
	// Journal, when set, supplies each RecvFor destination's journal (an
	// untyped nil return = no journal for that destination): every accepted
	// message is appended to it, and every ack waits until the frames it
	// acknowledges are durable.
	Journal func(tx.NodeID) Durability
	// Floors seeds the per-sender dedup watermarks of the destinations
	// Journal gives a journal (Journal.Floors): the highest (incarnation,
	// link) a checkpoint or the journaled history holds from each sender,
	// so live retransmissions of what the node already has — journaled or
	// rotated out under a checkpoint — are dropped as duplicates. Without
	// it, a restarted node would reset each link to expected=1 and park
	// every live retransmit in the future buffer — a permanent stall.
	Floors map[tx.NodeID]LinkFloor
	// Recovered preloads a RecvFor destination's delivery log with its
	// journaled history, which the pump replays to the consumer from the
	// start. It sets no watermark: Floors covers the recovered frames.
	Recovered []Message
}

// NewReliableWith wraps inner with reliable delivery under explicit
// receive/send sets, an incarnation, and optional journaling/recovery.
func NewReliableWith(inner Transport, o ReliableOpts) *Reliable {
	r := &Reliable{
		inner: inner,
		sends: make(map[[2]tx.NodeID]*sendLink),
		dests: make(map[tx.NodeID]*destState, len(o.RecvFor)),
		inc:   o.Incarnation,
		quit:  make(chan struct{}),
	}
	for _, n := range o.RecvFor {
		ds := &destState{
			node:     n,
			recv:     make(map[tx.NodeID]*recvLink),
			pauseSig: make(chan struct{}),
			out:      make(chan Message),
			parked:   make(map[tx.NodeID]parkedAck),
			kick:     make(chan struct{}, 1),
		}
		if o.Journal != nil {
			ds.journal = o.Journal(n)
		}
		// Floors are a journal's: a destination without one (the leader
		// co-hosted beside a worker) starts every link fresh.
		if ds.journal != nil {
			for s, lf := range o.Floors {
				ds.recv[s] = newRecvLink(lf.Inc, lf.Link+1)
			}
		}
		for _, m := range o.Recovered {
			if m.To == n {
				ds.log = append(ds.log, m)
			}
		}
		r.dests[n] = ds
		r.wg.Add(1)
		go r.pumpLoop(ds)
	}
	return r
}

// Stats returns cumulative protocol counters.
func (r *Reliable) Stats() ReliableStats {
	return ReliableStats{
		Retransmits: r.retransmits.Load(),
		DupsDropped: r.dupDropped.Load(),
		Acks:        r.acks.Load(),
		Piggybacked: r.piggybacked.Load(),
	}
}

// Depths reports the layer's current queue occupancy: Unacked is the
// total sender-side retransmission window (messages sent but not yet
// cumulatively acked) and Backlog is the total receiver-side delivery
// backlog (messages logged but not yet handed to consumers). Both are
// instantaneous gauges for telemetry, not protocol state.
func (r *Reliable) Depths() (unacked, backlog int64) {
	r.mu.Lock()
	links := make([]*sendLink, 0, len(r.sends))
	for _, sl := range r.sends {
		links = append(links, sl)
	}
	r.mu.Unlock()
	for _, sl := range links {
		sl.mu.Lock()
		unacked += int64(len(sl.unacked))
		sl.mu.Unlock()
	}
	for _, ds := range r.dests {
		ds.mu.Lock()
		backlog += int64(ds.base + uint64(len(ds.log)) - ds.next)
		ds.mu.Unlock()
	}
	return unacked, backlog
}

// Send implements Transport: it sequences m onto its link, buffers it for
// retransmission, and makes the first delivery attempt, carrying the ack
// m.From owes m.To if one is parked. Send never blocks on a slow or dead
// receiver beyond the inner transport's own enqueue.
func (r *Reliable) Send(m Message) error {
	if m.From == m.To {
		return r.inner.Send(m)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("network: reliable transport closed")
	}
	key := [2]tx.NodeID{m.From, m.To}
	sl := r.sends[key]
	if sl == nil {
		sl = &sendLink{
			rto:  NewRTO(linkRTOFloor, linkRTOFloor, linkRTOCeil),
			kick: make(chan struct{}, 1),
			gap:  make(chan struct{}, 1),
		}
		r.sends[key] = sl
		r.wg.Add(1)
		go r.retransmitLoop(sl)
	}
	r.mu.Unlock()

	sl.sendMu.Lock()
	defer sl.sendMu.Unlock()
	sl.mu.Lock()
	sl.nextSeq++
	sl.stamp++
	m.Link = sl.nextSeq
	m.Inc = r.inc
	sl.unacked = append(sl.unacked, unackedMsg{m: m, sentAt: time.Now(), stamp: sl.stamp})
	sl.mu.Unlock()
	select {
	case sl.kick <- struct{}{}:
	default:
	}
	// Only the first transmission carries the ack: the buffered copy
	// resends without one.
	if ds := r.dests[m.From]; ds != nil {
		if a, ok := ds.takeAck(m.To); ok {
			m.Ack, m.AckInc = uint32(a.link), uint16(a.inc)
			r.piggybacked.Add(1)
		}
	}
	// First-attempt transmission; loss is repaired by the retransmit loop,
	// so a mid-shutdown inner error is not fatal to the caller.
	return r.inner.Send(m)
}

// retransmitLoop repairs sl's losses on two signals. A gap report (handle
// kicks sl.gap) resends the frames the peer reported missing at once. A
// timeout — a whole RTO with no ack progress — resends the frames that
// went that RTO unacknowledged and backs the RTO off. Resends leave from
// this goroutine, not the pump, so a pump never waits behind a blocked
// send.
func (r *Reliable) retransmitLoop(sl *sendLink) {
	defer r.wg.Done()
	for {
		sl.mu.Lock()
		pending := len(sl.unacked)
		ackedBefore := sl.acked
		rto := sl.rto.Timeout()
		sl.mu.Unlock()
		if pending == 0 {
			select {
			case <-sl.kick:
				continue
			case <-r.quit:
				return
			}
		}
		t := time.NewTimer(rto)
		select {
		case <-r.quit:
			t.Stop()
			return
		case <-sl.gap:
			t.Stop()
			r.resend(sl, sl.gapFrames)
		case <-t.C:
			r.resend(sl, func() []Message { return sl.agedFrames(ackedBefore, rto) })
		}
	}
}

// resend re-stamps the frames pick selects and transmits them, all under
// sl.sendMu, so the resends take their place in the link's stamp order.
func (r *Reliable) resend(sl *sendLink, pick func() []Message) {
	sl.sendMu.Lock()
	defer sl.sendMu.Unlock()
	sl.mu.Lock()
	frames := pick()
	sl.mu.Unlock()
	r.retransmits.Add(int64(len(frames)))
	for _, m := range frames {
		_ = r.inner.Send(m)
	}
}

// gapFrames selects what the peer's latest gap report proves lost. The
// peer lacks every frame between the cumulative ack and held, yet holds
// heldTop; since a link's frames reach the FIFO inner transport in stamp
// order (sendMu), every transmission that left before the one that
// delivered heldTop has arrived or never will. Gap frames resent after
// that transmission may still be in flight and wait for the next report
// (or the RTO). The order is the stamps', not the send times': two
// transmissions can read the same clock, and a tie would resend a frame
// still in flight. Caller holds sl.mu.
func (sl *sendLink) gapFrames() []Message {
	if sl.held <= sl.acked+1 || len(sl.unacked) == 0 {
		return nil
	}
	first := sl.unacked[0].m.Link
	gap, top := sl.held-first, sl.heldTop-first
	if top >= uint64(len(sl.unacked)) || top < gap || sl.unacked[top].m.Link != sl.heldTop {
		return nil
	}
	delivered := sl.unacked[top].stamp
	return sl.restamp(int(gap), func(u *unackedMsg) bool { return u.stamp < delivered })
}

// agedFrames selects the timeout's resends. Progress during the RTO
// (acked moved past ackedBefore) gives the in-flight window another round.
// Otherwise it takes only frames that went the whole RTO unacknowledged:
// fresher ones are still plausibly in flight (or held behind the peer's
// group-commit gate), and resending them buys nothing but dedup work on
// the other side. Caller holds sl.mu.
func (sl *sendLink) agedFrames(ackedBefore uint64, rto time.Duration) []Message {
	if sl.acked != ackedBefore {
		return nil
	}
	cutoff := time.Now().Add(-rto)
	aged := sl.restamp(len(sl.unacked), func(u *unackedMsg) bool { return !u.sentAt.After(cutoff) })
	if len(aged) > 0 {
		sl.rto.Backoff()
	}
	return aged
}

// restamp marks the first n unacked frames that pick selects as resent
// now and returns them. Caller holds sl.mu.
func (sl *sendLink) restamp(n int, pick func(*unackedMsg) bool) []Message {
	var out []Message
	now := time.Now()
	for i := range sl.unacked[:n] {
		if u := &sl.unacked[i]; pick(u) {
			sl.stamp++
			out = append(out, u.m)
			u.sentAt, u.stamp, u.resent = now, sl.stamp, true
		}
	}
	return out
}

// pumpLoop is one destination's only goroutine. It consumes the inner
// transport's inbox: protocol traffic (acks, duplicates, gaps) is absorbed
// here, and accepted messages are appended to the delivery log. Acks are
// paid per drain, not per message: the pump handles the message it woke
// for, keeps taking whatever is already queued (up to maxDrain), and only
// when the inbox is momentarily empty owes one cumulative ack to each
// sender it heard from (flushAcks). Its timer sends the parked acks no data
// frame carried within ackDelay.
//
// In the same select it offers the next logged message to the consumer.
// The cursor advances *before* the offer, and an open offer stays open
// across inbox, timer and kick wake-ups; only a Pause withdraws it,
// rolling the cursor back. The unbuffered out channel means a completed
// offer was received, so the watermark can never lag a consumed message —
// which matters, because a checkpoint watermark below a consumed
// state-bearing message would make a restart re-apply input the
// checkpoint already covers. Withdrawing on any other wake-up would lose a
// message whenever a checkpoint truncation (TruncateDelivered) lands
// between the offer and its rollback.
func (r *Reliable) pumpLoop(ds *destState) {
	defer r.wg.Done()
	inbox := r.inner.Recv(ds.node)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	armed := false
	var (
		offer    Message
		out      chan<- Message  // ds.out while an offer is open, else nil
		withdraw <-chan struct{} // the pause signal the open offer watches
		gen      uint64          // ds.gen when the offer opened
	)
	for {
		if out != nil {
			// A Pause that landed while the pump was busy withdraws the
			// offer first: the select below would pick at random between
			// it and a consumer already waiting.
			select {
			case <-withdraw:
				ds.withdraw(gen)
				out = nil
			default:
			}
		}
		if out == nil {
			var ok bool
			if offer, gen, withdraw, ok = ds.nextOffer(); ok {
				out = ds.out
			}
		}
		if out != nil {
			// A consumer already waiting takes the offer without the pump
			// parking in the select below.
			select {
			case out <- offer:
				out = nil
				continue
			default:
			}
		}
		var expired <-chan time.Time
		if armed {
			expired = timer.C
		}
		select {
		case <-r.quit:
			return
		case out <- offer:
			out = nil
		case <-withdraw:
			ds.withdraw(gen)
			out = nil
		case <-ds.kick:
		case <-expired:
			armed = false
			r.sendDueAcks(ds)
		case m, ok := <-inbox:
			if !ok {
				return
			}
			r.handle(ds, m)
			n := 1
		drain:
			for ; n < maxDrain; n++ {
				select {
				case m, ok := <-inbox:
					if !ok {
						break drain
					}
					r.handle(ds, m)
				default:
					break drain
				}
			}
			r.flushAcks(ds, n == maxDrain)
		}
		if !armed {
			if d, ok := ds.nextAckDue(); ok {
				timer.Reset(d)
				armed = true
			}
		}
	}
}

// nextOffer takes the next logged message for the consumer, advancing the
// cursor past it, unless the destination is paused or has nothing logged
// beyond the cursor. It returns the Rewind generation and the pause signal
// the offer is withdrawn on; with no offer the signal is nil, since a
// paused destination's signal stays closed.
func (ds *destState) nextOffer() (m Message, gen uint64, sig <-chan struct{}, ok bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.dropTaken()
	if ds.paused || ds.next >= ds.base+uint64(len(ds.log)) {
		return Message{}, 0, nil, false
	}
	m = ds.log[ds.next-ds.base]
	ds.next++
	return m, ds.gen, ds.pauseSig, true
}

// withdraw takes back an offer a Pause came before: nobody took the
// message, so the cursor goes back to it — unless a Rewind (gen is the
// generation the offer opened under) already repositioned it, or a
// checkpoint truncation already advanced the base past the message (its
// log entry is gone; the consumer — only ever the sequencer leader, whose
// feed stays live across a checkpoint — is being killed, and the protocol
// re-derives anything a dying leader never processed via front-end retries
// and re-replication).
func (ds *destState) withdraw(gen uint64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.gen == gen && ds.next > ds.base {
		ds.next--
	}
}

// flushAcks settles the ack owed to every sender heard from since the last
// flush. An ack that reports a gap, or ends a full drain (a saturated
// inbox must keep its senders' windows moving), leaves at once; any other
// is parked for the next data frame back to its sender. Either way it
// passes the durability gate first: under group commit the peer learns of
// a delivery only after the fsync covering it — every journal append of
// the drain precedes the gate call — so an acked frame can never be lost
// to host death. A gap report names the lowest and highest frames held
// past the gap in Seq and Txn (0: none held).
func (r *Reliable) flushAcks(ds *destState, full bool) {
	for _, from := range ds.owed {
		rl := ds.recv[from]
		ack := Message{
			From: ds.node, To: from, Type: MsgLinkAck, Link: rl.expected - 1, Inc: rl.inc,
		}
		for l := range rl.future {
			if ack.Seq == 0 || l < ack.Seq {
				ack.Seq = l
			}
			ack.Txn = max(ack.Txn, tx.TxnID(l))
		}
		settle := func() { ds.park(from, ack.Link, ack.Inc) }
		if full || ack.Seq != 0 {
			settle = func() { r.sendAck(ds, ack) }
		}
		if ds.journal == nil {
			settle()
			continue
		}
		// The journal may release the ack from another goroutine, after
		// the pump has armed its timer: wake the pump to look again.
		ds.journal.AfterDurable(func() {
			settle()
			ds.wake()
		})
	}
	ds.owed = ds.owed[:0]
}

// sendAck sends ack as a standalone MsgLinkAck. It supersedes whatever the
// destination had parked for the same sender, which it covers.
func (r *Reliable) sendAck(ds *destState, ack Message) {
	ds.ackMu.Lock()
	if a, ok := ds.parked[ack.To]; ok && a.inc == ack.Inc && a.link <= ack.Link {
		delete(ds.parked, ack.To)
	}
	ds.ackMu.Unlock()
	r.acks.Add(1)
	_ = r.inner.Send(ack)
}

// sendDueAcks sends every parked ack whose ackDelay has run out.
func (r *Reliable) sendDueAcks(ds *destState) {
	var due []Message
	now := time.Now()
	ds.ackMu.Lock()
	for to, a := range ds.parked {
		if now.Sub(a.at) >= ackDelay {
			due = append(due, Message{From: ds.node, To: to, Type: MsgLinkAck, Link: a.link, Inc: a.inc})
			delete(ds.parked, to)
		}
	}
	ds.ackMu.Unlock()
	for _, ack := range due {
		r.acks.Add(1)
		_ = r.inner.Send(ack)
	}
}

// park records the cumulative ack ds owes to: the first frame Send
// transmits back to it carries the ack, and the pump sends it on its own
// ackDelay after it was first parked. A later ack for the same sender
// replaces it but keeps its deadline, so a steady trickle of deliveries
// cannot postpone the ack forever.
func (ds *destState) park(to tx.NodeID, link, inc uint64) {
	ds.ackMu.Lock()
	a, ok := ds.parked[to]
	switch {
	case !ok:
		a = parkedAck{link: link, inc: inc, at: time.Now()}
	case a.inc != inc || link > a.link:
		a.link, a.inc = link, inc
	}
	ds.parked[to] = a
	ds.ackMu.Unlock()
}

// takeAck removes and returns the ack parked for to, if one is parked and
// fits a data frame's Ack and AckInc; one that does not stays parked for
// the standalone path.
func (ds *destState) takeAck(to tx.NodeID) (parkedAck, bool) {
	ds.ackMu.Lock()
	defer ds.ackMu.Unlock()
	a, ok := ds.parked[to]
	if !ok || uint32(a.link) == 0 || a.inc >= 1<<16 {
		return parkedAck{}, false
	}
	delete(ds.parked, to)
	return a, true
}

// nextAckDue reports how long until the earliest parked ack is due, if any
// is parked.
func (ds *destState) nextAckDue() (time.Duration, bool) {
	ds.ackMu.Lock()
	defer ds.ackMu.Unlock()
	var first time.Time
	for _, a := range ds.parked {
		if first.IsZero() || a.at.Before(first) {
			first = a.at
		}
	}
	if first.IsZero() {
		return 0, false
	}
	return max(ackDelay-time.Since(first), 0), true
}

func (r *Reliable) handle(ds *destState, m Message) {
	switch {
	case m.Type == MsgLinkAck:
		// An ack for a different incarnation of us is about a previous (or
		// future) life of this process and says nothing about the current
		// window.
		if m.Inc == r.inc {
			r.ack(ds, m.From, m.Link, m.Seq, uint64(m.Txn), false)
		}
	case m.Link == 0:
		// Unsequenced (a sender outside this wrapper): deliver in arrival
		// order.
		ds.deliver(m)
	default:
		if m.Ack != 0 || m.AckInc != 0 {
			// A piggybacked ack is as good on a duplicate as on a fresh
			// frame; it is the reliable layer's, not the consumer's. An
			// incarnation of 1<<16 or more never matches: no ack for it
			// is ever piggybacked.
			if uint64(m.AckInc) == r.inc {
				r.ack(ds, m.From, uint64(m.Ack), 0, 0, true)
			}
			m.Ack, m.AckInc = 0, 0
		}
		rl := ds.recv[m.From]
		if rl == nil {
			rl = newRecvLink(m.Inc, 1)
			ds.recv[m.From] = rl
		}
		if m.Inc != rl.inc {
			if m.Inc < rl.inc {
				// A straggler from the sender's previous life (a retransmit
				// in flight across its restart): its numbering is dead.
				r.dupDropped.Add(1)
				return
			}
			// The sender restarted and is replaying its deterministic sends
			// under fresh numbering. Its replayed link order need not match
			// the pre-crash order, so the old watermark is meaningless:
			// reset the link and accept the stream from 1. Re-deliveries
			// this causes are idempotent at the engine layer (mailbox puts
			// overwrite by key, completion notices are at-least-once).
			rl.inc = m.Inc
			rl.expected = 1
			rl.future = make(map[uint64]Message)
		}
		switch {
		case m.Link < rl.expected:
			r.dupDropped.Add(1)
		case m.Link > rl.expected:
			// A gap: an earlier message was lost (or is still in flight
			// behind a retransmission). Hold this one for in-order release.
			if _, dup := rl.future[m.Link]; dup {
				r.dupDropped.Add(1)
			} else {
				rl.future[m.Link] = m
			}
		default:
			ds.deliver(m)
			rl.expected++
			for {
				nm, ok := rl.future[rl.expected]
				if !ok {
					break
				}
				delete(rl.future, rl.expected)
				ds.deliver(nm)
				rl.expected++
			}
		}
		// Every sequenced receipt owes its sender an ack — duplicates too:
		// the original ack may have been the casualty. Acks are cumulative,
		// so the drain's flush collapses them into one per sender.
		if !slices.Contains(ds.owed, m.From) {
			ds.owed = append(ds.owed, m.From)
		}
	}
}

// ack applies a cumulative acknowledgement from peer of the frames ds.node
// sent it, of this incarnation. A standalone ack carries the whole sequence
// and a gap report, held..heldTop (0: none held), which replaces the last
// one. A piggybacked ack carries the sequence's low 32 bits, which ack
// widens against the send window, and no gap report: the last one stands.
func (r *Reliable) ack(ds *destState, peer tx.NodeID, link, held, heldTop uint64, piggybacked bool) {
	r.mu.Lock()
	sl := r.sends[[2]tx.NodeID{ds.node, peer}]
	r.mu.Unlock()
	if sl == nil {
		return
	}
	sl.mu.Lock()
	if piggybacked {
		// The ack is the one sequence at or above sl.acked with these low
		// bits. Past the last frame sent, it is a stale ack from below.
		link = sl.acked + uint64(uint32(link)-uint32(sl.acked))
		if link > sl.nextSeq {
			sl.mu.Unlock()
			return
		}
	}
	if link > sl.acked {
		sl.acked = link
		i, resent := 0, false
		for i < len(sl.unacked) && sl.unacked[i].m.Link <= link {
			resent = resent || sl.unacked[i].resent
			i++
		}
		// One RTT sample per ack: the oldest covered frame has waited
		// longest for it, which is the wait the RTO must outlast. An ack
		// covering a resent frame is no sample (Karn): the resent frame's
		// wait is ambiguous, and a frame held behind it waited for the
		// repair, not the round trip.
		if i > 0 {
			sl.rto.Sample(time.Since(sl.unacked[0].sentAt), resent)
		}
		// Shift in place; zero the vacated tail so acked messages are
		// collectable.
		n := copy(sl.unacked, sl.unacked[i:])
		clear(sl.unacked[n:])
		sl.unacked = sl.unacked[:n]
	}
	// The current ack's gap report replaces the last one; the retransmit
	// loop resends what it proves lost.
	gap := false
	if !piggybacked && link == sl.acked {
		sl.held, sl.heldTop = held, heldTop
		gap = held > link+1
	}
	sl.mu.Unlock()
	if gap {
		select {
		case sl.gap <- struct{}{}:
		default:
		}
	}
}

// deliver appends an accepted message to the delivery log; the pump offers
// it once the drain is done. The journal write comes first: once deliver
// returns, the caller may ack, and an acked message must already be
// durable.
func (ds *destState) deliver(m Message) {
	if ds.journal != nil {
		ds.journal.Append(m)
	}
	ds.mu.Lock()
	ds.log = append(ds.log, m)
	ds.mu.Unlock()
}

// wake kicks the pump out of its select to look at its state again.
func (ds *destState) wake() {
	select {
	case ds.kick <- struct{}{}:
	default:
	}
}

// dropTaken forgets the messages the consumer has taken unless a floor
// keeps them for a rewind. It moves the untaken rest to the front of the
// same array, and only once the taken prefix is at least as long as that
// rest: the copying is then O(1) per message and nothing is allocated,
// whatever the backlog. (Re-slicing past the prefix instead shrank the
// capacity, so any backlog reallocated the log every few messages.) An
// idle destination's consumer has taken everything, so its log is empty.
// The caller holds ds.mu.
func (ds *destState) dropTaken() {
	n := int(ds.next - ds.base)
	if ds.floored || n == 0 || n < len(ds.log)-n {
		return
	}
	rest := copy(ds.log, ds.log[n:])
	clear(ds.log[rest:])
	ds.log = ds.log[:rest]
	ds.base = ds.next
}

// Recv implements Transport. The channel is stable across calls, including
// across a Pause/Rewind/Resume cycle, so a restarted consumer reattaches to
// the same feed.
func (r *Reliable) Recv(node tx.NodeID) <-chan Message {
	ds := r.dests[node]
	if ds == nil {
		return r.inner.Recv(node)
	}
	return ds.out
}

// Pause stops feeding node's consumer (crash onset). Logging, acking, and
// retransmission continue — only the consumer handoff stops.
func (r *Reliable) Pause(node tx.NodeID) {
	ds := r.dests[node]
	if ds == nil {
		return
	}
	ds.mu.Lock()
	if !ds.paused {
		ds.paused = true
		close(ds.pauseSig)
	}
	ds.mu.Unlock()
}

// Rewind moves node's delivery cursor back to absolute position since
// (never moved forward). The destination must be paused — rewinding a live
// feed would interleave replayed and fresh messages — and since must not
// fall below the truncation base: the prefix is gone, so replaying from
// the base would silently hand the consumer a gapped suffix. Both
// conditions fail loudly instead.
func (r *Reliable) Rewind(node tx.NodeID, since uint64) error {
	ds := r.dests[node]
	if ds == nil {
		return fmt.Errorf("network: rewind: unknown destination %d", node)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if !ds.paused {
		return fmt.Errorf("network: rewind node %d: destination is not paused", node)
	}
	if since < ds.base {
		return fmt.Errorf("network: rewind node %d to %d: log truncated at %d, replay would skip %d messages",
			node, since, ds.base, ds.base-since)
	}
	if since < ds.next {
		ds.next = since
	}
	ds.gen++
	return nil
}

// Backlog reports node's receiver-side delivery backlog: messages logged
// for it but not yet handed to its consumer. A restarted consumer has
// caught up with history once its backlog reaches zero.
func (r *Reliable) Backlog(node tx.NodeID) int64 {
	ds := r.dests[node]
	if ds == nil {
		return 0
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return int64(ds.base + uint64(len(ds.log)) - ds.next)
}

// Resume restarts node's feed after a Pause.
func (r *Reliable) Resume(node tx.NodeID) {
	ds := r.dests[node]
	if ds == nil {
		return
	}
	ds.mu.Lock()
	if ds.paused {
		ds.paused = false
		ds.pauseSig = make(chan struct{})
	}
	ds.mu.Unlock()
	ds.wake()
}

// TruncateDelivered sets node's rewind floor and returns it: messages
// below absolute position upto (clamped to the delivery watermark, so
// undelivered input is never lost) are dropped, and every message from the
// floor on stays logged until the next call, so Rewind can return to it.
// A checkpoint calls it at its watermark: input before the checkpoint is
// covered by the snapshot, input after it is what a restart replays.
func (r *Reliable) TruncateDelivered(node tx.NodeID, upto uint64) uint64 {
	ds := r.dests[node]
	if ds == nil {
		return 0
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if upto > ds.next {
		upto = ds.next
	}
	if upto > ds.base {
		n := upto - ds.base
		ds.log = append(ds.log[:0:0], ds.log[n:]...)
		ds.base = upto
	}
	ds.floored = true
	return ds.base
}

// Close implements Transport: it stops every goroutine, then closes the
// inner transport. Consumer channels are not closed (consumers are
// expected to stop on their own quit signal first, as the engine does).
func (r *Reliable) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.quit)
	r.wg.Wait()
	r.inner.Close()
}
