package sequencer

import (
	"sync"
	"time"

	"hermes/internal/network"
	"hermes/internal/tx"
)

// Queue-resend pacing of a session front-end: an RTO measured from forward
// to Sequenced, one timed request at a time. A forward travels the
// reliable link, so the queue is lost only with its leader, and a
// promotion resends it at once (SetLeader): the timeout is a backstop, and
// a spurious one resends the whole queue.
//   - The floor is 100 ms, twice the link's (network.Reliable): a seal
//     round trip is two link hops plus the wait for a batch to fill. On 2
//     vCPUs shared by a three-process cluster, this code with a 20 ms
//     floor resent its queue (50, 50 and 10 requests) after 20–29 ms
//     silences in three cluster-ycsb passes; with 100 ms, the same three
//     seeds resent nothing (docs/PERF.md, "Pacing").
//   - The ceiling is the largest cap ever configured (4 s, hermesd's): a
//     front-end stalled behind a dead leader still probes every few seconds.
//   - The initial (pre-sample) timeout is the 1 s hermesd ran with: a fresh
//     cluster's first seal waits for a size-only batch to fill.
const (
	frontendRTOInitial = time.Second
	frontendRTOFloor   = 100 * time.Millisecond
	frontendRTOCeil    = 4 * time.Second
)

// Frontend is a node-local sequencer front-end: it forwards client
// requests to the leader, paying one network hop as in Calvin. Every
// front-end stamps each request with a dense (Client, ClientSeq) identity
// and transmits in stamp order — the identity the leader deduplicates by
// and the engine answers the client by.
//
// A session front-end (NewSessionFrontend) additionally makes
// submissions survive leader failover: it keeps each request queued until
// the leader sequences it, and resends the whole queue — in submission
// order, so the leader always observes a gapless client stream — whenever
// the leader hint changes, or when its measured seal round trip (an RTO:
// SRTT + 4·RTTVAR, doubled per unanswered resend) passes with no progress.
// The leader's (Client, ClientSeq) dedup makes the resends idempotent: no
// request is lost or sequenced twice.
type Frontend struct {
	node    tx.NodeID
	tr      network.Transport
	session bool

	// sendMu serializes every transmission to the leader, stamping
	// included: the leader drops a request whose ClientSeq is not above the
	// highest it has accepted from the client, so a fresh submission must
	// never overtake an earlier one, nor a resend a fresh submission.
	sendMu  sync.Mutex
	nextSeq uint64 // guarded by sendMu

	mu           sync.Mutex
	leader       tx.NodeID
	unacked      []*tx.Request
	rto          network.RTO
	lastProgress time.Time
	// timed is the ClientSeq whose forward-to-Sequenced round trip is
	// being measured (0: none), forwarded at timedAt. A queue resend voids
	// the measurement: the seal may answer either copy (Karn's rule).
	timed   uint64
	timedAt time.Time

	quit chan struct{}
	done sync.WaitGroup
}

// NewFrontend returns a fire-and-forget front-end for node forwarding to
// leader: it stamps and orders submissions but keeps no retry queue, so it
// suits a leader that cannot fail over.
func NewFrontend(node, leader tx.NodeID, tr network.Transport) *Frontend {
	return &Frontend{node: node, leader: leader, tr: tr}
}

// NewSessionFrontend returns a front-end whose submissions survive
// leader failover (see type docs). Stop it when done.
func NewSessionFrontend(node, leader tx.NodeID, tr network.Transport) *Frontend {
	f := &Frontend{
		node: node, leader: leader, tr: tr, session: true,
		rto:          network.NewRTO(frontendRTOInitial, frontendRTOFloor, frontendRTOCeil),
		lastProgress: time.Now(),
		quit:         make(chan struct{}),
	}
	f.done.Add(1)
	go f.retryLoop()
	return f
}

// Submit forwards a client request to the leader. The returned error is
// non-nil only if the transport is closed.
func (f *Frontend) Submit(req *tx.Request) error {
	return f.SubmitTracked(req, nil)
}

// SubmitTracked is Submit with a pre-transmission hook: pre (if non-nil)
// observes the assigned ClientSeq after the request is stamped but before
// it is transmitted, still under the send lock. The engine uses it to
// register the client's completion waiter under the stamp with no window in
// which the answer could arrive first.
func (f *Frontend) SubmitTracked(req *tx.Request, pre func(clientSeq uint64)) error {
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	f.nextSeq++
	req.Client = f.node
	req.ClientSeq = f.nextSeq
	f.mu.Lock()
	if f.session {
		now := time.Now()
		if len(f.unacked) == 0 {
			// Nothing was outstanding, so nothing was stalled: the resend
			// clock starts with this request.
			f.lastProgress = now
		}
		f.unacked = append(f.unacked, req)
		if f.timed == 0 {
			f.timed, f.timedAt = req.ClientSeq, now
		}
	}
	leader := f.leader
	f.mu.Unlock()
	if pre != nil {
		pre(req.ClientSeq)
	}
	err := f.forward(req, leader)
	if err != nil && f.session {
		// Transport closed: the request will never be sequenced, so drop
		// it from the queue and report.
		f.mu.Lock()
		if n := len(f.unacked); n > 0 && f.unacked[n-1] == req {
			f.unacked = f.unacked[:n-1]
		}
		f.mu.Unlock()
	}
	return err
}

func (f *Frontend) forward(req *tx.Request, leader tx.NodeID) error {
	// A session front-end transmits a private copy: after a failover the
	// queue is resent to a new leader while the old one may still be
	// sealing the previous transmission, and two leaders writing assigned
	// IDs into one shared Request would race. Each sealing leader gets
	// its own object, and the queued original is immutable after stamping,
	// so resend-time copying never races with a seal.
	if f.session {
		req = req.SendCopy()
	}
	return f.tr.Send(network.Message{
		From: f.node, To: leader, Type: network.MsgSeqForward,
		Batch: &tx.Batch{Txns: []*tx.Request{req}},
	})
}

// Sequenced tells the front-end the leader sealed req into a batch. The
// leader seals a client's requests in ClientSeq order, so everything up
// to req's ClientSeq is acknowledged in one go.
func (f *Frontend) Sequenced(req *tx.Request) {
	if !f.session || req.ClientSeq == 0 {
		return
	}
	f.mu.Lock()
	i := 0
	for i < len(f.unacked) && f.unacked[i].ClientSeq <= req.ClientSeq {
		i++
	}
	if i > 0 {
		// Shift in place; nil the vacated tail so sealed requests are
		// collectable.
		n := copy(f.unacked, f.unacked[i:])
		clear(f.unacked[n:])
		f.unacked = f.unacked[:n]
		f.lastProgress = time.Now()
		if f.timed != 0 && f.timed <= req.ClientSeq {
			f.rto.Sample(f.lastProgress.Sub(f.timedAt), false)
			f.timed = 0
		}
	}
	f.mu.Unlock()
}

// SetLeader redirects the front-end to a new leader and immediately
// resends the unacknowledged queue to it. The switch and the resend are one
// step under the send lock: a submission that saw the new leader before the
// queue had been resent would reach it first, and the leader would then
// drop the queue's lower stamps as duplicates.
func (f *Frontend) SetLeader(leader tx.NodeID) {
	if !f.session {
		return
	}
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	f.mu.Lock()
	changed := f.leader != leader
	f.leader = leader
	f.mu.Unlock()
	if changed {
		f.resendLocked()
	}
}

// Unacked reports how many submissions await sequencing.
func (f *Frontend) Unacked() int {
	if !f.session {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.unacked)
}

// resend retransmits the whole unacknowledged queue, in submission
// order, to the current leader.
func (f *Frontend) resend() {
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	f.resendLocked()
}

func (f *Frontend) resendLocked() {
	f.mu.Lock()
	queue := append([]*tx.Request(nil), f.unacked...)
	leader := f.leader
	f.lastProgress = time.Now()
	f.timed = 0
	f.mu.Unlock()
	for _, req := range queue {
		if f.forward(req, leader) != nil {
			return
		}
	}
}

// retryLoop resends the queue whenever it has made no progress for a whole
// RTO, and backs the RTO off for each such resend. It sleeps until the
// current deadline (the last progress plus the RTO), re-reading both when
// it wakes, so progress or a fresh measurement in the meantime moves it.
func (f *Frontend) retryLoop() {
	defer f.done.Done()
	t := time.NewTimer(frontendRTOFloor)
	defer t.Stop()
	for {
		select {
		case <-f.quit:
			return
		case <-t.C:
		}
		f.mu.Lock()
		wait := f.rto.Timeout() - time.Since(f.lastProgress)
		stalled := len(f.unacked) > 0 && wait <= 0
		if stalled {
			f.rto.Backoff()
		}
		if wait <= 0 {
			wait = f.rto.Timeout()
		}
		f.mu.Unlock()
		if stalled {
			f.resend()
		}
		t.Reset(wait)
	}
}

// Stop halts a session front-end's retry loop.
func (f *Frontend) Stop() {
	if !f.session {
		return
	}
	select {
	case <-f.quit:
		return
	default:
	}
	close(f.quit)
	f.done.Wait()
}
