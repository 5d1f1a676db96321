package sequencer

import (
	"sync"
	"time"

	"hermes/internal/clock"
	"hermes/internal/network"
	"hermes/internal/tx"
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
// progress stalls past the retry timeout (with capped exponential
// backoff) or the leader hint changes. The leader's (Client, ClientSeq)
// dedup makes the resends idempotent: no request is lost or sequenced
// twice.
type Frontend struct {
	node    tx.NodeID
	tr      network.Transport
	clk     clock.Clock
	session bool
	retry   time.Duration
	rcap    time.Duration

	// sendMu serializes every transmission to the leader, stamping
	// included: the leader drops a request whose ClientSeq is not above the
	// highest it has accepted from the client, so a fresh submission must
	// never overtake an earlier one, nor a resend a fresh submission.
	sendMu  sync.Mutex
	nextSeq uint64 // guarded by sendMu

	mu           sync.Mutex
	leader       tx.NodeID
	unacked      []*tx.Request
	backoff      time.Duration
	lastProgress time.Time

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
func NewSessionFrontend(node, leader tx.NodeID, tr network.Transport, clk clock.Clock, retry, retryCap time.Duration) *Frontend {
	if clk == nil {
		clk = clock.Real{}
	}
	if retry <= 0 {
		retry = defaultRetryTimeout
	}
	if retryCap < retry {
		retryCap = defaultRetryCap
	}
	f := &Frontend{
		node: node, leader: leader, tr: tr, clk: clk,
		session: true, retry: retry, rcap: retryCap,
		backoff: retry, lastProgress: clk.Now(),
		quit: make(chan struct{}),
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
		f.unacked = append(f.unacked, req)
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
		f.lastProgress = f.clk.Now()
		f.backoff = f.retry
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
	f.lastProgress = f.clk.Now()
	f.mu.Unlock()
	for _, req := range queue {
		if f.forward(req, leader) != nil {
			return
		}
	}
}

func (f *Frontend) retryLoop() {
	defer f.done.Done()
	for {
		wake := make(chan struct{})
		go func() {
			f.clk.Sleep(f.retry)
			close(wake)
		}()
		select {
		case <-f.quit:
			return
		case <-wake:
		}
		f.mu.Lock()
		n := len(f.unacked)
		stalled := n > 0 && f.clk.Now().Sub(f.lastProgress) >= f.backoff
		if n == 0 {
			f.backoff = f.retry
		} else if stalled {
			f.backoff *= 2
			if f.backoff > f.rcap {
				f.backoff = f.rcap
			}
		}
		f.mu.Unlock()
		if stalled {
			f.resend()
		}
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
