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

// ReliableStats reports how hard the reliable layer had to work.
type ReliableStats struct {
	// Retransmits counts messages re-sent, on a timeout or a gap report.
	Retransmits int64
	// DupsDropped counts received messages discarded as duplicates.
	DupsDropped int64
	// Acks counts cumulative link acknowledgements sent.
	Acks int64
}

// Reliable provides the Transport contract — per-link FIFO order, no loss,
// no duplication — on top of an inner transport that may drop or duplicate
// messages (the chaos wrapper's DropProb/DupProb faults, a flaky socket).
// Mechanism, per (from,to) link: the sender stamps each message with a
// dense sequence number (Message.Link), buffers it until acknowledged, and
// retransmits frames left unacknowledged past the link's retransmission
// timeout, which it measures from the acks themselves (RTO); the receiver
// delivers in sequence, buffers the future, discards duplicates, and
// returns cumulative MsgLinkAck acknowledgements — one per sender per drain
// of its inbox, not one per message (see pumpLoop), each naming the frames
// it holds beyond a gap — which may themselves be lost or duplicated: the
// protocol only needs them to eventually arrive.
//
// Reliable additionally keeps a per-destination delivery log: every message
// is appended to its destination's log before a feeder goroutine hands it
// to the consumer, and the log survives the consumer. This is what makes
// live node restart possible (§4.3): the delivery log is the node's durable
// totally-ordered input record — like the paper's command log, but covering
// record pushes and write-backs too — so a restarted node catches up by
// rewinding its cursor to the last checkpoint's watermark (Delivered) and
// re-receiving history, while Pause/Resume model the crash window. The
// layer itself is modeled as durable (it keeps acking and logging while the
// node is down), exactly as the paper assumes of its logging tier.
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
}

// sendLink is the sender half of one (from,to) link.
type sendLink struct {
	// sendMu orders the link's transmissions: each takes its sentAt stamp
	// and reaches the inner transport under it, so over a FIFO transport
	// the peer receives frames in stamp order. That is what lets a gap
	// report tell a lost frame from one still in flight.
	sendMu sync.Mutex

	mu      sync.Mutex
	nextSeq uint64 // last assigned sequence (first message gets 1)
	acked   uint64 // highest cumulative ack received
	held    uint64 // lowest frame the peer last reported holding past a gap (0: none)
	heldTop uint64 // highest such frame
	unacked []unackedMsg
	rto     RTO
	kick    chan struct{} // wakes the retransmit loop when work appears
	gap     chan struct{} // wakes it when the peer reports a gap
}

// unackedMsg is one in-flight message plus its last transmission time and
// whether it was ever resent. The retransmit loop resends only messages
// that have aged past the current timeout: when the receiver gates acks
// behind a group-commit fsync (Journal.AfterDurable), the whole window is
// legitimately unacked for a few milliseconds at a time, and resending
// fresh frames on every silent round turns that ack latency into a
// duplicate storm that costs more CPU than the fsync it is waiting for.
type unackedMsg struct {
	m      Message
	sentAt time.Time
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
	next     uint64 // absolute position of the next message to hand out
	gen      uint64 // bumped by Rewind so a racing handoff can't advance next
	paused   bool
	pauseSig chan struct{} // closed while paused; fresh channel when running
	notify   chan struct{} // cap-1 feeder kick
	out      chan Message  // unbuffered consumer channel (Recv)

	// journal, when set, persists each accepted message before it becomes
	// acknowledgeable. Called from the pump goroutine only, in delivery
	// order, *before* the message is appended to the in-memory log — so by
	// the time the peer sees an ack, the message is on disk and a process
	// crash cannot lose acknowledged input.
	journal func(Message)

	// ackGate, when set, defers each ack send until the journal's
	// durability promise covers the acked frames (Journal.AfterDurable).
	// Under group commit this is what turns "journaled" into "fsynced
	// before the peer may forget the message".
	ackGate func(func())
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
	// JournalFor, when set, supplies each RecvFor destination's journal
	// sink (nil return = no journal for that destination): it persists each
	// accepted message before the message is acknowledged.
	JournalFor func(tx.NodeID) func(Message)
	// AckGateFor, when set, supplies each RecvFor destination's durability
	// gate (Journal.AfterDurable; nil return = ungated): every ack send is
	// routed through it, so the ack closure runs only once the frames it
	// acknowledges are durable under the journal's fsync policy.
	AckGateFor func(tx.NodeID) func(func())
	// Floors seeds the per-sender dedup watermarks of the destinations
	// JournalFor gives a journal, below any journaled history: a checkpoint
	// records the highest (incarnation, link) delivered from each sender,
	// and frames rotated out of the journal must still be dropped as
	// duplicates when peers retransmit them.
	// Without it, a restarted node whose journal holds no frames from a
	// sender would reset that link to expected=1 and park every live
	// retransmit in the future buffer — a permanent stall.
	Floors map[tx.NodeID]LinkFloor
	// Recovered preloads a RecvFor destination's delivery log with its
	// journaled history: the feeder replays it to the consumer from the
	// start, and per-sender dedup watermarks are initialized to the highest
	// journaled (incarnation, link) so live retransmissions of already
	// journaled messages are dropped rather than re-delivered out of place.
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
			notify:   make(chan struct{}, 1),
			out:      make(chan Message),
		}
		if o.JournalFor != nil {
			ds.journal = o.JournalFor(n)
		}
		if o.AckGateFor != nil {
			ds.ackGate = o.AckGateFor(n)
		}
		// Checkpoint floors first; journaled history (below) only raises
		// them. Floors are a journal's: a destination without one (the
		// leader co-hosted beside a worker) starts every link fresh.
		if ds.journal != nil {
			for s, lf := range o.Floors {
				ds.recv[s] = newRecvLink(lf.Inc, lf.Link+1)
			}
		}
		for _, m := range o.Recovered {
			if m.To != n {
				continue
			}
			ds.log = append(ds.log, m)
			if m.Link == 0 {
				continue
			}
			rl := ds.recv[m.From]
			if rl == nil {
				ds.recv[m.From] = newRecvLink(m.Inc, m.Link+1)
				continue
			}
			switch {
			case m.Inc > rl.inc:
				rl.inc = m.Inc
				rl.expected = m.Link + 1
			case m.Inc == rl.inc && m.Link >= rl.expected:
				rl.expected = m.Link + 1
			}
		}
		r.dests[n] = ds
		r.wg.Add(2)
		go r.pumpLoop(ds)
		go r.feedLoop(ds)
	}
	return r
}

// Stats returns cumulative protocol counters.
func (r *Reliable) Stats() ReliableStats {
	return ReliableStats{
		Retransmits: r.retransmits.Load(),
		DupsDropped: r.dupDropped.Load(),
		Acks:        r.acks.Load(),
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
// retransmission, and makes the first delivery attempt. Send never blocks
// on a slow or dead receiver beyond the inner transport's own enqueue.
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
	m.Link = sl.nextSeq
	m.Inc = r.inc
	sl.unacked = append(sl.unacked, unackedMsg{m: m, sentAt: time.Now()})
	sl.mu.Unlock()
	select {
	case sl.kick <- struct{}{}:
	default:
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
// (or the RTO). Caller holds sl.mu.
func (sl *sendLink) gapFrames() []Message {
	if sl.held <= sl.acked+1 || len(sl.unacked) == 0 {
		return nil
	}
	first := sl.unacked[0].m.Link
	gap, top := sl.held-first, sl.heldTop-first
	if top >= uint64(len(sl.unacked)) || top < gap || sl.unacked[top].m.Link != sl.heldTop {
		return nil
	}
	return sl.restamp(int(gap), sl.unacked[top].sentAt)
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
	aged := sl.restamp(len(sl.unacked), time.Now().Add(-rto))
	if len(aged) > 0 {
		sl.rto.Backoff()
	}
	return aged
}

// restamp marks the first n unacked frames last sent no later than before
// as resent now and returns them. Caller holds sl.mu.
func (sl *sendLink) restamp(n int, before time.Time) []Message {
	var out []Message
	now := time.Now()
	for i := range sl.unacked[:n] {
		if u := &sl.unacked[i]; !u.sentAt.After(before) {
			out = append(out, u.m)
			u.sentAt, u.resent = now, true
		}
	}
	return out
}

// pumpLoop consumes the inner transport's inbox for one destination:
// protocol traffic (acks, duplicates, gaps) is absorbed here; accepted
// messages are appended to the delivery log for the feeder. Acks are paid
// per drain, not per message: the pump handles the message it woke for,
// keeps taking whatever is already queued (up to maxDrain), and only when
// the inbox is momentarily empty sends one cumulative ack to each sender it
// heard from. Every drain ends with that flush and nothing waits on a
// timer, so an idle link is acked at once and a lossy one stays live.
func (r *Reliable) pumpLoop(ds *destState) {
	defer r.wg.Done()
	inbox := r.inner.Recv(ds.node)
	for {
		select {
		case <-r.quit:
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			r.handle(ds, m)
		}
	drain:
		for n := 1; n < maxDrain; n++ {
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
		r.flushAcks(ds)
	}
}

// flushAcks sends one cumulative ack to every sender heard from since the
// last flush. Each send goes through the durability gate: under group
// commit the peer learns of a delivery only after the fsync covering it —
// every journal append of the drain precedes the gate call — so an acked
// frame can never be lost to host death. An ack also reports a gap: Seq and
// Txn are the lowest and highest frames held past it (0: none held).
func (r *Reliable) flushAcks(ds *destState) {
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
		send := func() {
			r.acks.Add(1)
			_ = r.inner.Send(ack)
		}
		if ds.ackGate != nil {
			ds.ackGate(send)
		} else {
			send()
		}
	}
	ds.owed = ds.owed[:0]
}

func (r *Reliable) handle(ds *destState, m Message) {
	switch {
	case m.Type == MsgLinkAck:
		// m acknowledges data we (ds.node) sent to m.From. An ack for a
		// different incarnation of us is about a previous (or future) life
		// of this process and says nothing about the current window.
		if m.Inc != r.inc {
			return
		}
		r.mu.Lock()
		sl := r.sends[[2]tx.NodeID{ds.node, m.From}]
		r.mu.Unlock()
		if sl == nil {
			return
		}
		sl.mu.Lock()
		if m.Link > sl.acked {
			sl.acked = m.Link
			i, resent := 0, false
			for i < len(sl.unacked) && sl.unacked[i].m.Link <= m.Link {
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
		// The current ack's gap report replaces the last one; the
		// retransmit loop resends what it proves lost.
		gap := false
		if m.Link == sl.acked {
			sl.held, sl.heldTop = m.Seq, uint64(m.Txn)
			gap = m.Seq > m.Link+1
		}
		sl.mu.Unlock()
		if gap {
			select {
			case sl.gap <- struct{}{}:
			default:
			}
		}
	case m.Link == 0:
		// Unsequenced (a sender outside this wrapper): deliver in arrival
		// order.
		ds.deliver(m)
	default:
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

// deliver appends an accepted message to the delivery log and kicks the
// feeder. The journal write comes first: once deliver returns, the caller
// may ack, and an acked message must already be durable.
func (ds *destState) deliver(m Message) {
	if ds.journal != nil {
		ds.journal(m)
	}
	ds.mu.Lock()
	ds.log = append(ds.log, m)
	ds.mu.Unlock()
	select {
	case ds.notify <- struct{}{}:
	default:
	}
}

// feedLoop hands logged messages to the consumer in log order. The cursor
// advances *before* the handoff and rolls back only if a Pause aborts it:
// the unbuffered out channel means a completed send was received, so the
// watermark can never lag a consumed message — which matters, because a
// checkpoint watermark below a consumed state-bearing message would make a
// restart re-apply input the checkpoint already covers.
func (r *Reliable) feedLoop(ds *destState) {
	defer r.wg.Done()
	for {
		ds.mu.Lock()
		for ds.paused || ds.next >= ds.base+uint64(len(ds.log)) {
			ds.mu.Unlock()
			select {
			case <-ds.notify:
			case <-r.quit:
				return
			}
			ds.mu.Lock()
		}
		m := ds.log[ds.next-ds.base]
		ds.next++
		gen := ds.gen
		sig := ds.pauseSig
		ds.mu.Unlock()
		select {
		case ds.out <- m:
		case <-sig:
			// Paused mid-handoff: nobody took the message, so put the
			// cursor back — unless a Rewind already repositioned it, or a
			// checkpoint truncation already advanced the base past the
			// message (its log entry is gone; the consumer — only ever
			// the sequencer leader, whose feed stays live across a
			// checkpoint — is being killed, and the protocol re-derives
			// anything a dying leader never processed via front-end
			// retries and re-replication).
			ds.mu.Lock()
			if ds.gen == gen && ds.next > ds.base {
				ds.next--
			}
			ds.mu.Unlock()
		case <-r.quit:
			return
		}
	}
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

// Delivered returns node's delivery watermark: the absolute count of
// messages handed to its consumer. Checkpoints record it; Rewind to it
// replays exactly the post-checkpoint input.
func (r *Reliable) Delivered(node tx.NodeID) uint64 {
	ds := r.dests[node]
	if ds == nil {
		return 0
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.next
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
	select {
	case ds.notify <- struct{}{}:
	default:
	}
}

// TruncateDelivered drops node's logged messages below absolute position
// upto (clamped to the delivery watermark, so undelivered input is never
// lost). Checkpoints call it: input before the checkpoint is covered by
// the snapshot and no longer needed for replay.
func (r *Reliable) TruncateDelivered(node tx.NodeID, upto uint64) {
	ds := r.dests[node]
	if ds == nil {
		return
	}
	ds.mu.Lock()
	if upto > ds.next {
		upto = ds.next
	}
	if upto > ds.base {
		n := upto - ds.base
		ds.log = append(ds.log[:0:0], ds.log[n:]...)
		ds.base = upto
	}
	ds.mu.Unlock()
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
