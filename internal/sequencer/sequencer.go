// Package sequencer implements the input layer of the deterministic stack
// (§2.1): node front-ends forward client requests to a dedicated leader —
// the role the paper gives to one machine running the Zab total-ordering
// protocol — which compiles them into batches, assigns the global total
// order (batch sequence numbers and dense transaction IDs), and delivers
// the identical batch stream to every node over the transport.
//
// The paper's cluster dedicates a full machine to the Zab leader and
// assumes the total-order service itself is replicated and fault
// tolerant. This package reproduces that too: a Group runs the leader
// plus Config.Standbys standby replicas on their own transport nodes.
// The leader replicates every sealed batch to the standbys *before*
// delivering it to the cluster — a batch is deliverable only once every
// live standby has appended and acknowledged it, so the delivered prefix
// of the total order survives leader death. Standbys detect leader
// silence through heartbeats (timeout + capped probe backoff) and
// promote deterministically: the first live standby in rank order
// resumes from its replicated (seq, nextTxn) high-water mark under a new
// epoch, re-delivers its retained log (a node drops a batch below the
// sequence it wants), and announces the epoch so front-ends redirect.
// Client front-ends keep every unacknowledged request queued and resend the
// whole queue in submission order on retry or leader change; the leader
// deduplicates by (Client, ClientSeq), so no request is lost or
// sequenced twice across the failover.
package sequencer

import (
	"math"
	"sync"
	"time"

	"hermes/internal/network"
	"hermes/internal/tx"
)

// Config controls batching and the fault-tolerance profile of the
// total-order service.
type Config struct {
	// BatchSize flushes a batch once this many requests are pending.
	BatchSize int
	// Interval flushes a non-empty batch after this long even if it is
	// not full, bounding latency at low load. Zero seals on size only:
	// batch boundaries are then a function of the request stream alone,
	// and whoever needs the tail sealed calls Flush.
	Interval time.Duration

	// Standbys is the number of standby sequencer replicas behind the
	// leader. 0 (the default) runs a single unreplicated leader: no
	// heartbeats and no replication traffic, and with no standby to wait
	// for, the release step delivers each batch as soon as it is sealed.
	Standbys int
}

// The replicated group's liveness timing. Heartbeat is the leader's pulse
// interval to its standbys. FailoverTimeout is how long a standby lets the
// leader stay silent before the first standby in promotion order takes
// over; standby k waits k+1 times this, staggering takeover attempts. It
// trades recovery latency for robustness against scheduler starvation: a
// race-enabled run under load can stall the leader's pulse goroutine for
// tens of milliseconds, and a fault-free run must never record a spurious
// promotion.
const (
	Heartbeat       = 5 * time.Millisecond
	FailoverTimeout = 150 * time.Millisecond
)

// pendingBatch is a sealed batch the leader has not released yet: need
// holds the standbys whose replication ack is still outstanding, nil when
// no standby was live. The set is snapshotted at seal time so a standby
// that recovers later is never retroactively required.
type pendingBatch struct {
	batch *tx.Batch
	need  map[tx.NodeID]bool
}

// Leader is one total-order replica. Standalone (NewLeader with a nil
// group) it is always the leader; inside a Group it is the epoch's leader
// or a standby tracking the replicated batch stream. Create with NewLeader
// or via NewGroup, start with Start, stop with Stop.
type Leader struct {
	id    tx.NodeID
	tr    network.Transport
	cfg   Config
	group *Group // nil for a standalone leader
	// members receive the ordered stream. Fixed by NewLeader and never
	// written after, so it is read without a lock.
	members []tx.NodeID

	// flushMu makes seal→replicate→deliver single-flight. Flush is called
	// from three goroutines (the size trigger in recvLoop, flushLoop, a
	// driver's Drain poll); Seq is assigned under mu, so without this lock
	// a later batch's sends could overtake an earlier one's and a member
	// would see the stream out of order. Every path that sends
	// MsgSeqDeliver while leading holds it. Lock order: flushMu, then mu.
	flushMu sync.Mutex

	mu      sync.Mutex
	pending []*tx.Request
	nextSeq uint64
	nextTxn tx.TxnID
	stopped bool

	// Replication and failover state (Group mode).
	epoch      uint64
	leaderID   tx.NodeID // believed leader of epoch
	leading    bool
	recovering bool // restarted replica replaying logged input
	fenced     bool // sealing disabled (crash preparation)

	// log retains a sealed batch until it is released and below floor,
	// the newest checkpoint's cut (keepFrom): promotion re-delivers what it
	// holds, and from a checkpoint on it is the cluster's command log, the
	// input a recovery replays. Before any checkpoint floor is the maximum
	// sequence, so the log is just the unreleased window.
	log        []*tx.Batch
	logEpochs  []uint64 // epoch each retained entry was appended under
	floor      uint64
	txnBase    tx.TxnID // nextTxn as of the start of the retained log
	unreleased []pendingBatch
	// released is the release point heartbeats carry: every batch below
	// it is released. The leader advances it once the batches' deliveries
	// are sent; a standby takes it from its leader's heartbeats.
	released   uint64
	releasing  []*tx.Batch          // the release step's reused buffer; under flushMu
	repFuture  map[uint64]*tx.Batch // standby: out-of-order replicates
	arrived    map[tx.NodeID]uint64 // leader: highest ClientSeq accepted
	sealedHigh map[tx.NodeID]uint64 // highest ClientSeq sealed into a batch
	clientBase map[tx.NodeID]uint64 // sealedHigh as of the start of the retained log
	lastHeard  time.Time

	// sealed counts the stream this replica sealed; a group's replicas
	// share the group's.
	sealed       *sealCount
	statLastFill float64

	quit chan struct{}
	done sync.WaitGroup
}

// NewLeader creates a replica bound to transport node id, delivering to
// members (the list is copied). With a nil group it is a standalone leader,
// always leading; otherwise it belongs to g, which decides its role.
func NewLeader(id tx.NodeID, tr network.Transport, members []tx.NodeID, cfg Config, g *Group) *Leader {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	sealed := newSealCount(0, firstTxn)
	if g != nil {
		sealed = g.sealed
	}
	return &Leader{
		id:         id,
		tr:         tr,
		cfg:        cfg,
		group:      g,
		members:    append([]tx.NodeID(nil), members...),
		nextTxn:    firstTxn,
		txnBase:    firstTxn,
		sealed:     sealed,
		floor:      math.MaxUint64,
		leaderID:   id,
		leading:    g == nil,
		repFuture:  make(map[uint64]*tx.Batch),
		arrived:    make(map[tx.NodeID]uint64),
		sealedHigh: make(map[tx.NodeID]uint64),
		clientBase: make(map[tx.NodeID]uint64),
		lastHeard:  time.Now(),
		quit:       make(chan struct{}),
	}
}

// replicated reports whether this replica runs the replication protocol
// (it belongs to a group with at least one standby).
func (l *Leader) replicated() bool { return l.group != nil && l.group.size() > 1 }

// Start launches the replica's receive loop, its flush loop unless it seals
// on size only, and the heartbeat/failover loop when replication is on.
func (l *Leader) Start() {
	l.done.Add(1)
	go l.recvLoop()
	if l.cfg.Interval > 0 {
		l.done.Add(1)
		go l.flushLoop()
	}
	if l.replicated() {
		l.done.Add(1)
		go l.pulseLoop()
	}
}

// Stop flushes nothing further and waits for the loops to exit.
func (l *Leader) Stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	l.mu.Unlock()
	close(l.quit)
	l.done.Wait()
}

func (l *Leader) recvLoop() {
	defer l.done.Done()
	inbox := l.tr.Recv(l.id)
	for {
		select {
		case <-l.quit:
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			switch m.Type {
			case network.MsgSeqForward:
				l.handleForward(m)
			case network.MsgSeqReplicate:
				l.handleReplicate(m)
			case network.MsgSeqReplicateAck:
				l.handleReplicateAck(m)
			case network.MsgSeqHeartbeat, network.MsgSeqEpoch:
				l.handleEpochBearing(m)
			}
		}
	}
}

// handleForward accepts client submissions. Only the current epoch's
// unfenced leader accepts; everyone else drops and relies on the
// front-end's retry to re-deliver after redirection. Accepted requests
// are deduplicated by (Client, ClientSeq) so a retried submission that
// did arrive the first time is never sequenced twice.
func (l *Leader) handleForward(m network.Message) {
	if m.Batch == nil {
		return
	}
	l.mu.Lock()
	if !l.leading || l.fenced || l.recovering || l.stopped {
		l.mu.Unlock()
		return
	}
	for _, r := range m.Batch.Txns {
		if r.ClientSeq != 0 {
			if r.ClientSeq <= l.arrived[r.Client] {
				continue
			}
			l.arrived[r.Client] = r.ClientSeq
		}
		l.pending = append(l.pending, r)
	}
	full := len(l.pending) >= l.cfg.BatchSize
	l.mu.Unlock()
	if full {
		l.Flush()
	}
}

// handleReplicate appends a batch replicated by the current leader and
// acknowledges it. Replicates from a stale epoch are bounced with the
// current epoch instead of acknowledged, which fences a deposed leader:
// it can never assemble the acks its delivery rule requires.
func (l *Leader) handleReplicate(m network.Message) {
	l.mu.Lock()
	switch cmp := l.claimCmp(m.Epoch, m.From); {
	case cmp < 0:
		ep, ld := l.epoch, l.leaderID
		l.mu.Unlock()
		l.sendEpoch(m.From, ep, ld)
		return
	case cmp > 0:
		l.adoptEpochLocked(m.Epoch, m.From)
	}
	l.lastHeard = time.Now()
	if m.Batch != nil {
		l.appendReplicatedLocked(m.Batch)
	}
	ep := l.epoch
	l.mu.Unlock()
	// Ack every replicate, duplicates included: the original ack may have
	// been the casualty.
	_ = l.tr.Send(network.Message{
		From: l.id, To: m.From, Type: network.MsgSeqReplicateAck,
		Seq: m.Seq, Epoch: ep,
	})
}

// appendReplicatedLocked applies one replicated batch in sequence order,
// holding out-of-order arrivals until the gap fills, and tracks the
// (seq, nextTxn) high-water mark plus per-client sealed watermarks this
// replica would resume from if promoted.
func (l *Leader) appendReplicatedLocked(b *tx.Batch) {
	if b.Seq < l.nextSeq {
		l.reconcileReplicatedLocked(b)
		return
	}
	if b.Seq > l.nextSeq {
		l.repFuture[b.Seq] = b
		return
	}
	l.applyReplicatedLocked(b)
	for {
		nb, ok := l.repFuture[l.nextSeq]
		if !ok {
			return
		}
		delete(l.repFuture, l.nextSeq)
		l.applyReplicatedLocked(nb)
	}
}

// reconcileReplicatedLocked handles a replicate at a sequence this
// replica already holds. Usually it is a retransmit of the entry we
// have. But after a failover it can instead be the new leader's
// *different* batch for that sequence: this replica may have appended a
// batch the dead leader sealed but never released (release requires
// every live standby's ack, not just ours), while the promoted leader —
// which never received that batch — resealed the same sequence number
// from the front-ends' resent queues. The current leader's stream is
// authoritative: the entry and everything after it are unreleased
// leftovers of the dead epoch, so the suffix is truncated — rolling the
// (seq, nextTxn) high-water mark and the per-client sealed watermarks
// back to the surviving prefix — and the superseding batch applied in
// its place. Without this a twice-promoted standby could re-deliver the
// leftover under a sequence number the cluster saw different
// transactions for.
func (l *Leader) reconcileReplicatedLocked(b *tx.Batch) {
	if len(l.log) == 0 || b.Seq < l.log[0].Seq {
		return // below the retained log: ancient duplicate
	}
	idx := int(b.Seq - l.log[0].Seq)
	if idx >= len(l.log) {
		return // the retained log is dense, so this cannot happen
	}
	if l.log[idx] == b {
		// The very batch we hold, re-sent — a retransmit, or the promoted
		// leader re-replicating its retained log: adopt the new epoch tag.
		if l.epoch > l.logEpochs[idx] {
			l.logEpochs[idx] = l.epoch
		}
		return
	}
	if l.logEpochs[idx] >= l.epoch {
		return // same-claim duplicate (re-decoded off a real network)
	}
	// Divergent suffix: drop it and apply the superseding batch.
	l.log = l.log[:idx]
	l.logEpochs = l.logEpochs[:idx]
	l.nextSeq = b.Seq
	l.nextTxn = l.txnBase
	for i := idx - 1; i >= 0; i-- {
		if n := len(l.log[i].Txns); n > 0 {
			l.nextTxn = l.log[i].Txns[n-1].ID + 1
			break
		}
	}
	l.sealedHigh = l.recomputeSealedLocked()
	l.applyReplicatedLocked(b)
	for {
		nb, ok := l.repFuture[l.nextSeq]
		if !ok {
			return
		}
		delete(l.repFuture, l.nextSeq)
		l.applyReplicatedLocked(nb)
	}
}

func (l *Leader) applyReplicatedLocked(b *tx.Batch) {
	l.log = append(l.log, b)
	l.logEpochs = append(l.logEpochs, l.epoch)
	l.nextSeq = b.Seq + 1
	if n := len(b.Txns); n > 0 {
		l.nextTxn = b.Txns[n-1].ID + 1
	}
	for _, r := range b.Txns {
		if r.ClientSeq != 0 && r.ClientSeq > l.sealedHigh[r.Client] {
			l.sealedHigh[r.Client] = r.ClientSeq
		}
	}
}

// handleReplicateAck records a standby's replication ack and takes the
// release step. It holds flushMu throughout, like Flush, so the two never
// deliver out of sequence order.
func (l *Leader) handleReplicateAck(m network.Message) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if m.Epoch != l.epoch || !l.leading {
		l.mu.Unlock()
		return
	}
	for i := range l.unreleased {
		if l.unreleased[i].batch.Seq == m.Seq {
			delete(l.unreleased[i].need, m.From)
			break
		}
	}
	l.mu.Unlock()
	l.release()
}

// handleEpochBearing processes heartbeats and epoch announcements: adopt
// newer epochs (stepping down if we led the old one), refresh the
// leader's liveness on current-epoch traffic, drop what the believed
// leader's heartbeat says is released, and bounce stale leaders with the
// epoch they missed.
func (l *Leader) handleEpochBearing(m network.Message) {
	l.mu.Lock()
	switch cmp := l.claimCmp(m.Epoch, m.From); {
	case cmp > 0:
		l.adoptEpochLocked(m.Epoch, m.From)
		l.lastHeard = time.Now()
		l.mu.Unlock()
	case cmp == 0:
		if m.From != l.id {
			l.lastHeard = time.Now()
			if m.Type == network.MsgSeqHeartbeat {
				l.released = m.Seq
				l.trimLocked()
			}
		}
		l.mu.Unlock()
	default:
		// Stale or outranked claimant: bounce back the claim it lost to,
		// so a deposed or tied-and-losing leader steps down. The bounce
		// never triggers a counter-bounce — the receiver either adopts
		// (strictly greater claim) or already agrees.
		ep, ld := l.epoch, l.leaderID
		l.mu.Unlock()
		l.sendEpoch(m.From, ep, ld)
	}
}

// claimCmp orders a leadership claim (epoch, from) against the replica's
// current belief (l.epoch, l.leaderID): +1 newer, 0 same, -1 outranked.
// Claims are ordered lexicographically — epoch first, then replica id,
// higher id (= lower rank) winning — so two standbys that promote into
// the same epoch concurrently resolve deterministically: the lower rank
// keeps leading, the other steps back down. Call with l.mu held.
func (l *Leader) claimCmp(epoch uint64, from tx.NodeID) int {
	switch {
	case epoch != l.epoch:
		if epoch > l.epoch {
			return 1
		}
		return -1
	case from != l.leaderID:
		if from > l.leaderID {
			return 1
		}
		return -1
	}
	return 0
}

// adoptEpochLocked moves the replica to a newer epoch led by leader. A
// replica that led the older epoch steps down: its unflushed requests
// and sealed-but-undelivered batches are discarded (front-ends hold and
// retry everything unacknowledged, and an undelivered batch was by
// definition never acknowledged), and its counters roll back to the
// delivered prefix.
func (l *Leader) adoptEpochLocked(epoch uint64, leader tx.NodeID) {
	wasLeading := l.leading
	l.epoch = epoch
	l.leaderID = leader
	l.leading = leader == l.id
	// Replicates buffered behind a gap are unreleased by construction
	// (release is strictly in sequence order and the gap batch never got
	// this replica's ack), so under the new claim they may have been
	// superseded; the new leader re-replicates its authoritative log.
	for k := range l.repFuture {
		delete(l.repFuture, k)
	}
	if wasLeading && !l.leading {
		l.stepDownLocked()
	}
}

func (l *Leader) stepDownLocked() {
	for i := len(l.unreleased) - 1; i >= 0; i-- {
		pb := l.unreleased[i]
		if n := len(l.log); n > 0 && l.log[n-1] == pb.batch {
			l.log = l.log[:n-1]
			l.logEpochs = l.logEpochs[:n-1]
		}
		l.nextSeq = pb.batch.Seq
		if len(pb.batch.Txns) > 0 {
			l.nextTxn = pb.batch.Txns[0].ID
		}
	}
	l.unreleased = nil
	l.pending = nil
	l.sealedHigh = l.recomputeSealedLocked()
}

// recomputeSealedLocked rebuilds the per-client sealed watermarks from
// the log-base snapshot plus the retained log.
func (l *Leader) recomputeSealedLocked() map[tx.NodeID]uint64 {
	sh := make(map[tx.NodeID]uint64, len(l.clientBase))
	for k, v := range l.clientBase {
		sh[k] = v
	}
	for _, b := range l.log {
		for _, r := range b.Txns {
			if r.ClientSeq != 0 && r.ClientSeq > sh[r.Client] {
				sh[r.Client] = r.ClientSeq
			}
		}
	}
	return sh
}

func (l *Leader) sendEpoch(to tx.NodeID, epoch uint64, leader tx.NodeID) {
	_ = l.tr.Send(network.Message{
		From: leader, To: to, Type: network.MsgSeqEpoch, Epoch: epoch,
	})
}

func (l *Leader) flushLoop() {
	defer l.done.Done()
	t := time.NewTimer(l.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-t.C:
			l.Flush()
			t.Reset(l.cfg.Interval)
		}
	}
}

// pulseLoop is the replication liveness loop. A leader pulses heartbeats
// to its live peers every Heartbeat. A standby watches for leader
// silence: past one missed heartbeat it counts a miss and backs its
// probe interval off exponentially (capped at half the failover
// timeout); past its staggered share of FailoverTimeout it promotes.
func (l *Leader) pulseLoop() {
	defer l.done.Done()
	t := time.NewTimer(Heartbeat)
	defer t.Stop()
	probe := Heartbeat
	for {
		select {
		case <-l.quit:
			return
		case <-t.C:
		}
		probe = l.pulse(probe)
		t.Reset(probe)
	}
}

// pulse runs one round of pulseLoop and returns the wait until the next.
func (l *Leader) pulse(probe time.Duration) time.Duration {
	l.mu.Lock()
	switch {
	case l.stopped || l.recovering || l.fenced:
		l.mu.Unlock()
	case l.leading:
		ep, released := l.epoch, l.released
		_, live := l.group.peers(l.id)
		l.mu.Unlock()
		for _, p := range live {
			_ = l.tr.Send(network.Message{
				From: l.id, To: p, Type: network.MsgSeqHeartbeat,
				Seq: released, Epoch: ep,
			})
		}
	default:
		silent := time.Since(l.lastHeard)
		if silent <= Heartbeat {
			l.mu.Unlock()
			return Heartbeat
		}
		l.group.noteMiss()
		pos := l.group.promotePos(l.id)
		if pos >= 0 && silent >= FailoverTimeout*time.Duration(pos+1) {
			l.promoteLocked() // unlocks l.mu
			return Heartbeat
		}
		l.mu.Unlock()
		return min(2*probe, FailoverTimeout/2)
	}
	return Heartbeat
}

// promoteLocked makes this standby the leader of a new epoch. Called
// with l.mu held; returns with it released. Before accepting new work it
// re-delivers its retained log — the dead leader's unreleased window, and
// the checkpoint tail once there is a checkpoint — to the members (a node
// drops a batch it already scheduled) and re-replicates it to every peer:
// live peers dedup by sequence, and a peer that is down receives the
// history through its delivery log on restart. Only then does it start
// leading, seeded with its replicated (seq, nextTxn) high-water mark and
// per-client dedup watermarks, and announce the epoch to members and
// peers.
func (l *Leader) promoteLocked() {
	newEpoch := l.epoch + 1
	l.epoch = newEpoch
	l.leaderID = l.id
	// Anything buffered behind a replication gap belonged to the dead
	// epoch and was never released; the log this replica promotes with is
	// the authoritative prefix.
	for k := range l.repFuture {
		delete(l.repFuture, k)
	}
	logCopy := append([]*tx.Batch(nil), l.log...)
	peers, _ := l.group.peers(l.id)
	l.mu.Unlock()

	for _, b := range logCopy {
		for _, n := range l.members {
			_ = l.tr.Send(network.Message{
				From: l.id, To: n, Type: network.MsgSeqDeliver,
				Seq: b.Seq, Epoch: newEpoch, Batch: b,
			})
		}
		for _, p := range peers {
			_ = l.tr.Send(network.Message{
				From: l.id, To: p, Type: network.MsgSeqReplicate,
				Seq: b.Seq, Epoch: newEpoch, Batch: b,
			})
		}
	}
	l.mu.Lock()
	l.leading = true
	l.arrived = make(map[tx.NodeID]uint64, len(l.sealedHigh))
	for k, v := range l.sealedHigh {
		l.arrived[k] = v
	}
	l.lastHeard = time.Now()
	l.mu.Unlock()

	// Announce only now that forwards are accepted: a member that hears
	// the epoch redirects its front-end, which resends its queue at once
	// and only once. A resend that arrived before leading was set would be
	// dropped, the client's next fresh submission accepted, and the
	// dropped requests then refused as duplicates of it.
	for _, n := range l.members {
		_ = l.tr.Send(network.Message{From: l.id, To: n, Type: network.MsgSeqEpoch, Epoch: newEpoch})
	}
	for _, p := range peers {
		_ = l.tr.Send(network.Message{From: l.id, To: p, Type: network.MsgSeqEpoch, Epoch: newEpoch})
	}
	l.group.announce(l.id, newEpoch)
}

// Flush seals the pending requests into a batch (if any), logs it,
// replicates it to the standbys and takes the release step, which
// delivers it to every member once each standby live at the seal has
// acknowledged it — at once with none live. It is also called internally
// on size and interval triggers; exposing it lets tests and closed-loop
// clients force progress.
func (l *Leader) Flush() {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if !l.leading || l.fenced || l.recovering || len(l.pending) == 0 {
		l.mu.Unlock()
		return
	}
	reqs := l.pending
	l.pending = nil
	// Assign the total order: dense transaction IDs in batch order.
	for _, r := range reqs {
		r.ID = l.nextTxn
		l.nextTxn++
		if r.ClientSeq != 0 && r.ClientSeq > l.sealedHigh[r.Client] {
			l.sealedHigh[r.Client] = r.ClientSeq
		}
	}
	batch := &tx.Batch{Seq: l.nextSeq, Txns: reqs}
	l.nextSeq++
	l.sealed.note(l.nextSeq, l.nextTxn)
	l.statLastFill = float64(len(reqs)) / float64(l.cfg.BatchSize)
	l.log = append(l.log, batch)
	l.logEpochs = append(l.logEpochs, l.epoch)
	ep := l.epoch
	var peers, live []tx.NodeID
	if l.replicated() {
		peers, live = l.group.peers(l.id)
	}
	var need map[tx.NodeID]bool
	if len(live) > 0 {
		need = make(map[tx.NodeID]bool, len(live))
		for _, s := range live {
			need[s] = true
		}
	}
	l.unreleased = append(l.unreleased, pendingBatch{batch: batch, need: need})
	l.mu.Unlock()
	for _, p := range peers {
		l.replicate(batch, p, ep)
	}
	l.release()
}

// release is the one release step. It takes, in sequence order, every
// leading batch of the unreleased queue that no standby still owes an
// ack for, drops what the retention rule no longer keeps, and delivers
// the batches to every member. Only once their deliveries are sent does
// it advance the release point the heartbeats carry, so a standby never
// drops a batch a dying leader had not yet sent. Call with flushMu held.
func (l *Leader) release() {
	l.mu.Lock()
	n := 0
	for n < len(l.unreleased) && len(l.unreleased[n].need) == 0 {
		n++
	}
	if n == 0 {
		l.mu.Unlock()
		return
	}
	rel := l.releasing
	for _, pb := range l.unreleased[:n] {
		rel = append(rel, pb.batch)
	}
	rest := copy(l.unreleased, l.unreleased[n:])
	clear(l.unreleased[rest:])
	l.unreleased = l.unreleased[:rest]
	point := l.releasePointLocked()
	l.trimLocked()
	ep := l.epoch
	l.mu.Unlock()
	for _, b := range rel {
		l.deliver(b, ep)
	}
	clear(rel)
	l.releasing = rel[:0]
	l.mu.Lock()
	if l.leading {
		l.released = point
	}
	l.mu.Unlock()
}

// releasePointLocked returns the sequence below which every batch this
// replica holds is released: the leader reads it off its unreleased
// queue, a standby has it from the last heartbeat.
func (l *Leader) releasePointLocked() uint64 {
	switch {
	case !l.leading:
		return l.released
	case len(l.unreleased) > 0:
		return l.unreleased[0].batch.Seq
	}
	return l.nextSeq
}

func (l *Leader) replicate(b *tx.Batch, to tx.NodeID, epoch uint64) {
	_ = l.tr.Send(network.Message{
		From: l.id, To: to, Type: network.MsgSeqReplicate,
		Seq: b.Seq, Epoch: epoch, Batch: b,
	})
}

func (l *Leader) deliver(b *tx.Batch, epoch uint64) {
	for _, n := range l.members {
		// Delivery failures mean the transport is closed mid-shutdown;
		// nothing useful can be done with the error here.
		_ = l.tr.Send(network.Message{
			From: l.id, To: n, Type: network.MsgSeqDeliver,
			Seq: b.Seq, Epoch: epoch, Batch: b,
		})
	}
}

// fence stops the replica from sealing new batches. Pending requests
// stay queued at the front-ends (which will retry them against the next
// leader); already-sealed batches still complete their replication round.
func (l *Leader) fence() {
	l.mu.Lock()
	l.fenced = true
	l.mu.Unlock()
}

// drainUnreleased waits until every sealed batch has gathered its
// replication acks and been released for delivery, so a subsequent crash
// cannot strand a sealed-but-undelivered batch (whose transaction IDs a
// promoted standby would then reassign).
func (l *Leader) drainUnreleased(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		n := len(l.unreleased)
		l.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// finishRecovery ends restart replay mode. If the replayed input shows
// this replica still owns the current epoch it resumes leading;
// otherwise it rejoins as a standby of whatever leader the replayed
// epoch announcements named.
func (l *Leader) finishRecovery() {
	l.mu.Lock()
	l.recovering = false
	l.lastHeard = time.Now()
	if l.leaderID == l.id {
		l.leading = true
		l.arrived = make(map[tx.NodeID]uint64, len(l.sealedHigh))
		for k, v := range l.sealedHigh {
			l.arrived[k] = v
		}
	}
	l.mu.Unlock()
	l.Flush()
}

// since returns the retained sealed batches with sequence ≥ seq, in order.
func (l *Leader) since(seq uint64) []*tx.Batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for i < len(l.log) && l.log[i].Seq < seq {
		i++
	}
	return append([]*tx.Batch(nil), l.log[i:]...)
}

// keepFrom sets the checkpoint floor: from now on the replica keeps every
// batch from seq on and drops a released batch below it. A checkpoint
// calls it with 0 before it reads its cut, so a batch sealed meanwhile
// stays, and with the cut after.
func (l *Leader) keepFrom(seq uint64) {
	l.mu.Lock()
	l.floor = seq
	l.trimLocked()
	l.mu.Unlock()
}

// trimLocked drops the retained batches below both the release point and
// the floor, compacting the log in place. clientBase and txnBase move up
// past the dropped batches, so the retained suffix still recomputes the
// high-water marks from them: with nothing retained they are the marks
// themselves, and otherwise the dropped batches' marks fold in.
func (l *Leader) trimLocked() {
	cut := min(l.releasePointLocked(), l.floor)
	i := 0
	for i < len(l.log) && l.log[i].Seq < cut {
		i++
	}
	switch {
	case i == 0:
		return
	case i == len(l.log):
		for k, v := range l.sealedHigh {
			l.clientBase[k] = v
		}
		l.txnBase = l.nextTxn
	default:
		for _, b := range l.log[:i] {
			for _, r := range b.Txns {
				if r.ClientSeq != 0 && r.ClientSeq > l.clientBase[r.Client] {
					l.clientBase[r.Client] = r.ClientSeq
				}
			}
			if n := len(b.Txns); n > 0 {
				l.txnBase = b.Txns[n-1].ID + 1
			}
		}
	}
	rest := copy(l.log, l.log[i:])
	clear(l.log[rest:])
	l.log = l.log[:rest]
	copy(l.logEpochs, l.logEpochs[i:])
	l.logEpochs = l.logEpochs[:rest]
}

// clientHigh returns a copy of the per-client sealed watermarks.
func (l *Leader) clientHigh() map[tx.NodeID]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[tx.NodeID]uint64, len(l.sealedHigh))
	for k, v := range l.sealedHigh {
		out[k] = v
	}
	return out
}

// firstTxn is the id a fresh total order gives its first transaction.
const firstTxn tx.TxnID = 1

// LeaderStats reports batching activity: how many batches and
// transactions the leader has sealed (a group's replicas report the
// group's count, which a failover neither resets nor rewinds), how full
// the most recent batch was relative to the configured size, and the
// requests currently pending.
type LeaderStats struct {
	Batches  int64
	Txns     int64
	LastFill float64 // last sealed batch size / BatchSize
	Pending  int     // requests awaiting the next flush
}

// sealCount counts a sealed stream by its high-water marks: one past the
// newest sealed batch's sequence and transaction id, against where the
// order began. A group's replicas share one, so the count survives the
// leader's death, and a batch that a deposed leader rolled back and its
// successor sealed again counts once.
type sealCount struct {
	mu        sync.Mutex
	seq0, seq uint64
	txn0, txn tx.TxnID
}

func newSealCount(seq uint64, txn tx.TxnID) *sealCount {
	return &sealCount{seq0: seq, seq: seq, txn0: txn, txn: txn}
}

// reset starts the count over at a repositioned order (SetNext).
func (s *sealCount) reset(seq uint64, txn tx.TxnID) {
	s.mu.Lock()
	s.seq0, s.seq, s.txn0, s.txn = seq, seq, txn, txn
	s.mu.Unlock()
}

// note records a seal that leaves the order at (seq, txn) next.
func (s *sealCount) note(seq uint64, txn tx.TxnID) {
	s.mu.Lock()
	s.seq = max(s.seq, seq)
	s.txn = max(s.txn, txn)
	s.mu.Unlock()
}

func (s *sealCount) stats() LeaderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return LeaderStats{Batches: int64(s.seq - s.seq0), Txns: int64(s.txn - s.txn0)}
}

// Stats returns cumulative batching statistics. Safe to call from any
// goroutine.
func (l *Leader) Stats() LeaderStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Read under mu, which every seal holds: a caller adding Txns and
	// Pending never counts a request twice or not at all.
	st := l.sealed.stats()
	st.LastFill = l.statLastFill
	st.Pending = len(l.pending)
	return st
}

// SetNext positions the total order: the next flushed batch gets sequence
// seq and its first transaction gets id next. Recovery uses this to
// resume the order after replaying a command log.
func (l *Leader) SetNext(seq uint64, next tx.TxnID) {
	l.mu.Lock()
	l.nextSeq = seq
	l.nextTxn = next
	l.txnBase = next
	l.sealed.reset(seq, next)
	l.mu.Unlock()
}

// Next reports the sequence the next flushed batch will get and the id its
// first transaction will get — the inverse of SetNext. Checkpoints record
// this pair so recovery can resume the total order exactly where the
// snapshot cut it.
func (l *Leader) Next() (seq uint64, next tx.TxnID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq, l.nextTxn
}

// Ack does nothing. Nodes used to acknowledge every delivered batch to
// the leader, which counted the acks into a map nothing read; the message
// is gone. The function survives only because bench/ — frozen by
// BENCHMARK.json — still calls it from its sequencer probe; delete it with
// the next bench/ revision.
func Ack(node, leader tx.NodeID, tr network.Transport, seq uint64) {}
