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

// Retransmission pacing: the first retry waits retransmitBase, then the
// interval doubles per silent round up to retransmitCap. The base is a few
// link round-trips at the emulation's latency scale, so a healthy link is
// never retransmitted into.
const (
	retransmitBase = 2 * time.Millisecond
	retransmitCap  = 64 * time.Millisecond
)

// ReliableStats reports how hard the reliable layer had to work.
type ReliableStats struct {
	// Retransmits counts messages re-sent by the retransmit loops.
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
// retransmits the unacknowledged window with capped exponential backoff;
// the receiver delivers in sequence, buffers the future, discards
// duplicates, and returns cumulative MsgLinkAck acknowledgements — one per
// sender per drain of its inbox, not one per message (see pumpLoop) — which
// may themselves be lost or duplicated: the protocol only needs them to
// eventually arrive.
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

	// seqTo is the set of destinations sends are sequenced to. In-process
	// clusters use one Reliable for every node, so it equals the dests set;
	// a cluster process receives only for itself but must still sequence
	// its sends to every peer, so the two sets diverge there.
	seqTo map[tx.NodeID]bool

	// inc is this sender's incarnation, stamped on every sequenced send.
	// See Message.Inc. Immutable after construction.
	inc uint64

	// rtBase/rtCap pace the retransmit loops (see ReliableOpts). Immutable
	// after construction.
	rtBase time.Duration
	rtCap  time.Duration

	quit chan struct{}
	wg   sync.WaitGroup

	retransmits atomic.Int64
	dupDropped  atomic.Int64
	acks        atomic.Int64
}

// sendLink is the sender half of one (from,to) link.
type sendLink struct {
	mu      sync.Mutex
	nextSeq uint64 // last assigned sequence (first message gets 1)
	acked   uint64 // highest cumulative ack received
	unacked []unackedMsg
	kick    chan struct{} // wakes the retransmit loop when work appears
}

// unackedMsg is one in-flight message plus its last transmission time. The
// retransmit loop resends only messages that have aged past the current
// backoff: when the receiver gates acks behind a group-commit fsync
// (Journal.AfterDurable), the whole window is legitimately unacked for a
// few milliseconds at a time, and resending fresh frames on every silent
// round turns that ack latency into a duplicate storm that costs more CPU
// than the fsync it is waiting for.
type unackedMsg struct {
	m      Message
	sentAt time.Time
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
// Messages to destinations outside the set pass through unsequenced.
func NewReliable(inner Transport, nodes []tx.NodeID) *Reliable {
	return NewReliableWith(inner, ReliableOpts{RecvFor: nodes, SendTo: nodes})
}

// ReliableOpts configures NewReliableWith beyond the symmetric in-process
// default.
type ReliableOpts struct {
	// RecvFor lists the destinations whose inboxes this layer consumes and
	// delivers for (one per in-process node; just the local node in a
	// cluster process).
	RecvFor []tx.NodeID
	// SendTo lists the peers sends are sequenced and retransmitted to.
	// Sends to other destinations pass through unsequenced.
	SendTo []tx.NodeID
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
	// Floors seeds per-sender dedup watermarks below any journaled
	// history: a checkpoint records the highest (incarnation, link)
	// delivered from each sender, and frames rotated out of the journal
	// must still be dropped as duplicates when peers retransmit them.
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
	// RetransmitBase/RetransmitCap override the retransmit pacing (zero =
	// the in-process defaults, a few milliseconds). The defaults assume
	// near-zero delivery latency; a real TCP cluster under load sees ack
	// round trips well past them — every false stall then resends in-flight
	// frames the receiver will just dedup — so cluster processes pass a
	// base comfortably above their steady-state ack latency. A cap below
	// the effective base is clamped up to it (the cap bounds backoff and
	// cannot precede the starting interval).
	RetransmitBase time.Duration
	RetransmitCap  time.Duration
}

// NewReliableWith wraps inner with reliable delivery under explicit
// receive/send sets, an incarnation, and optional journaling/recovery.
func NewReliableWith(inner Transport, o ReliableOpts) *Reliable {
	r := &Reliable{
		inner:  inner,
		sends:  make(map[[2]tx.NodeID]*sendLink),
		dests:  make(map[tx.NodeID]*destState, len(o.RecvFor)),
		seqTo:  make(map[tx.NodeID]bool, len(o.SendTo)),
		inc:    o.Incarnation,
		rtBase: o.RetransmitBase,
		rtCap:  o.RetransmitCap,
		quit:   make(chan struct{}),
	}
	if r.rtBase <= 0 {
		r.rtBase = retransmitBase
	}
	if r.rtCap <= 0 {
		r.rtCap = retransmitCap
	}
	if r.rtCap < r.rtBase {
		// The cap is a ceiling on backoff and can never sit below the
		// starting interval; an explicitly configured cap under base is
		// clamped up to base (see ReliableOpts), not replaced by defaults.
		r.rtCap = r.rtBase
	}
	for _, n := range o.SendTo {
		r.seqTo[n] = true
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
		// them.
		for s, lf := range o.Floors {
			ds.recv[s] = newRecvLink(lf.Inc, lf.Link+1)
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
	if !r.seqTo[m.To] {
		// Destination outside the sequenced set: stay transparent.
		r.mu.Unlock()
		return r.inner.Send(m)
	}
	key := [2]tx.NodeID{m.From, m.To}
	sl := r.sends[key]
	if sl == nil {
		sl = &sendLink{kick: make(chan struct{}, 1)}
		r.sends[key] = sl
		r.wg.Add(1)
		go r.retransmitLoop(sl)
	}
	r.mu.Unlock()

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

// retransmitLoop re-sends sl's unacknowledged window whenever a backoff
// interval passes with no ack progress.
func (r *Reliable) retransmitLoop(sl *sendLink) {
	defer r.wg.Done()
	backoff := r.rtBase
	for {
		sl.mu.Lock()
		pending := len(sl.unacked)
		ackedBefore := sl.acked
		sl.mu.Unlock()
		if pending == 0 {
			backoff = r.rtBase
			select {
			case <-sl.kick:
				continue
			case <-r.quit:
				return
			}
		}
		if !r.sleep(backoff) {
			return
		}
		var resend []Message
		sl.mu.Lock()
		if sl.acked > ackedBefore {
			// The receiver made progress while we waited: give the
			// in-flight window another round before resending.
			backoff = r.rtBase
		} else {
			// Resend only messages that have gone a full backoff without
			// an ack; fresher frames are still plausibly in flight (or
			// held behind the receiver's group-commit gate) and resending
			// them buys nothing but dedup work on the other side.
			now := time.Now()
			cutoff := now.Add(-backoff)
			for i := range sl.unacked {
				if sl.unacked[i].sentAt.Before(cutoff) {
					resend = append(resend, sl.unacked[i].m)
					sl.unacked[i].sentAt = now
				}
			}
		}
		sl.mu.Unlock()
		if len(resend) == 0 {
			continue
		}
		r.retransmits.Add(int64(len(resend)))
		for _, m := range resend {
			_ = r.inner.Send(m)
		}
		backoff *= 2
		if backoff > r.rtCap {
			backoff = r.rtCap
		}
	}
}

func (r *Reliable) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.quit:
		return false
	}
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
// frame can never be lost to host death.
func (r *Reliable) flushAcks(ds *destState) {
	for _, from := range ds.owed {
		rl := ds.recv[from]
		ack := Message{
			From: ds.node, To: from, Type: MsgLinkAck, Link: rl.expected - 1, Inc: rl.inc,
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
			i := 0
			for i < len(sl.unacked) && sl.unacked[i].m.Link <= m.Link {
				i++
			}
			// Shift in place; zero the vacated tail so acked messages are
			// collectable.
			n := copy(sl.unacked, sl.unacked[i:])
			clear(sl.unacked[n:])
			sl.unacked = sl.unacked[:n]
		}
		sl.mu.Unlock()
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
