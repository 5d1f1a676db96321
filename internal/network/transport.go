package network

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/tx"
)

// Transport moves messages between nodes. Implementations must preserve
// per-sender-receiver FIFO order (the protocols assume ordered links, as
// TCP provides) and must be safe for concurrent Send.
type Transport interface {
	// Send enqueues m for delivery to m.To. It returns an error only if
	// the destination does not exist or the transport is closed; delivery
	// itself is asynchronous.
	Send(m Message) error
	// Recv returns the delivery channel for node. The same channel is
	// returned on every call.
	Recv(node tx.NodeID) <-chan Message
	// Close shuts the transport down and closes all delivery channels.
	Close()
}

// Stats accumulates transport-level accounting per message type. All
// methods are safe for concurrent use.
type Stats struct {
	byType [256]struct{ messages, bytes atomic.Int64 } // indexed by MsgType
}

// TypeTotals is one message type's share of a Stats.
type TypeTotals struct {
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
}

// Count records one message of type t and size bytes.
func (s *Stats) Count(t MsgType, bytes int) {
	s.byType[t].messages.Add(1)
	s.byType[t].bytes.Add(int64(bytes))
}

// Totals returns cumulative messages and bytes.
func (s *Stats) Totals() (messages, bytes int64) {
	for i := range s.byType {
		messages += s.byType[i].messages.Load()
		bytes += s.byType[i].bytes.Load()
	}
	return messages, bytes
}

// ByType returns the cumulative messages and bytes of every type counted
// at least once.
func (s *Stats) ByType() map[MsgType]TypeTotals {
	out := make(map[MsgType]TypeTotals)
	for i := range s.byType {
		if n := s.byType[i].messages.Load(); n > 0 {
			out[MsgType(i)] = TypeTotals{Msgs: n, Bytes: s.byType[i].bytes.Load()}
		}
	}
	return out
}

// LinkModel conditions the in-process links. The transport asks it once
// per directed link, when the link first carries a message, for that
// link's Fate; a nil model, or a nil Fate, delivers every message as soon
// as the link's goroutine reaches it.
type LinkModel func(from, to tx.NodeID) Fate

// Fate decides one message's delivery on its link: given the time it was
// sent and its wire size, when it is due and how many copies arrive (0
// drops it, 2 duplicates it). The link's one delivery goroutine calls it
// once per message, in send order, so a Fate may keep per-link state (a
// PRNG, the link's occupancy) without locking.
type Fate func(sent time.Time, bytes int) (due time.Time, copies int)

// link is a FIFO pipe between one (from,to) pair. Delivery is pipelined:
// each message carries its send time and its due time follows from that,
// so a 500µs latency delays every message by 500µs without capping the
// link's throughput at 1/latency (messages in flight overlap, as on a real
// network).
type link struct {
	ch   chan sentMessage
	fate Fate
}

type sentMessage struct {
	m    Message
	sent time.Time // zero on a link without a Fate: no clock is read
}

// ChanTransport is the in-process transport used by the emulated cluster:
// every node pair gets an ordered link whose delivery goroutine applies the
// link model's fate to each message. Local sends (from == to) bypass the
// link and are delivered immediately without being counted as network
// traffic.
type ChanTransport struct {
	// sendMu is held shared for the full duration of every Send and
	// exclusively by Close, so Close can never close a link channel while
	// a Send is mid-enqueue.
	sendMu sync.RWMutex
	closed bool
	// quit closes first thing in Close: a link waiting out a delay, and a
	// Send blocked behind such a link, give up at once.
	quit      chan struct{}
	closeOnce sync.Once

	mapMu   sync.Mutex
	inboxes map[tx.NodeID]chan Message
	links   map[[2]tx.NodeID]*link

	model LinkModel
	stats Stats
	wg    sync.WaitGroup
}

// NewChanTransport creates a transport for the given nodes. model may be
// nil for immediate delivery.
func NewChanTransport(nodes []tx.NodeID, model LinkModel) *ChanTransport {
	t := &ChanTransport{
		quit:    make(chan struct{}),
		inboxes: make(map[tx.NodeID]chan Message, len(nodes)),
		links:   make(map[[2]tx.NodeID]*link),
		model:   model,
	}
	for _, n := range nodes {
		t.inboxes[n] = make(chan Message, 4096)
	}
	return t
}

// AddNode registers a new node (dynamic provisioning / scale-out).
// Adding an existing node is a no-op.
func (t *ChanTransport) AddNode(n tx.NodeID) {
	t.mapMu.Lock()
	defer t.mapMu.Unlock()
	if _, ok := t.inboxes[n]; !ok {
		t.inboxes[n] = make(chan Message, 4096)
	}
}

// Stats returns the transport's accounting.
func (t *ChanTransport) Stats() *Stats { return &t.stats }

var errClosed = errors.New("network: transport closed")

// Send implements Transport.
func (t *ChanTransport) Send(m Message) error {
	t.sendMu.RLock()
	defer t.sendMu.RUnlock()
	if t.closed {
		return errClosed
	}
	t.mapMu.Lock()
	inbox, ok := t.inboxes[m.To]
	t.mapMu.Unlock()
	if !ok {
		return fmt.Errorf("network: unknown node %d", m.To)
	}
	if m.From == m.To {
		inbox <- m
		return nil
	}
	t.stats.Count(m.Type, m.WireSize())
	lk := t.getLink(m.From, m.To, inbox)
	if lk.fate == nil {
		lk.ch <- sentMessage{m: m}
		return nil
	}
	select {
	case lk.ch <- sentMessage{m: m, sent: time.Now()}:
		return nil
	case <-t.quit:
		return errClosed
	}
}

// getLink returns the ordered link for (from,to), starting its delivery
// goroutine on first use.
func (t *ChanTransport) getLink(from, to tx.NodeID, inbox chan Message) *link {
	key := [2]tx.NodeID{from, to}
	t.mapMu.Lock()
	defer t.mapMu.Unlock()
	if lk, ok := t.links[key]; ok {
		return lk
	}
	lk := &link{ch: make(chan sentMessage, 4096)}
	if t.model != nil {
		lk.fate = t.model(from, to)
	}
	t.links[key] = lk
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if lk.fate != nil {
			t.deliverFated(lk, inbox)
			return
		}
		for sm := range lk.ch {
			inbox <- sm.m
		}
	}()
	return lk
}

// deliverFated is the delivery loop of a link with a Fate: each message
// waits until its due time, behind every earlier message on the link,
// and then arrives as many times as its fate says. Once Close begins,
// whatever the link still holds is dropped.
func (t *ChanTransport) deliverFated(lk *link, inbox chan Message) {
	for sm := range lk.ch {
		due, copies := lk.fate(sm.sent, sm.m.WireSize())
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-t.quit:
				timer.Stop()
				return
			}
		}
		for ; copies > 0; copies-- {
			select {
			case inbox <- sm.m:
			case <-t.quit:
				return
			}
		}
	}
}

// Recv implements Transport. Recv of an unknown node returns a nil channel
// (which blocks forever), surfacing wiring bugs fast in tests.
func (t *ChanTransport) Recv(node tx.NodeID) <-chan Message {
	t.mapMu.Lock()
	defer t.mapMu.Unlock()
	return t.inboxes[node]
}

// Close implements Transport. It stops link goroutines, dropping what a
// delayed link still holds, and closes all inboxes; Send after Close
// returns an error.
func (t *ChanTransport) Close() {
	t.closeOnce.Do(func() {
		close(t.quit)
		t.sendMu.Lock()
		t.closed = true
		t.sendMu.Unlock()

		t.mapMu.Lock()
		for _, lk := range t.links {
			close(lk.ch)
		}
		inboxes := t.inboxes
		t.mapMu.Unlock()

		t.wg.Wait()
		for _, ch := range inboxes {
			close(ch)
		}
	})
}
