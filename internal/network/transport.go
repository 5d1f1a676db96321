package network

import (
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

// LatencyModel computes the one-way delivery delay for a message of size
// bytes from one node to another. A nil model means zero delay.
type LatencyModel func(from, to tx.NodeID, bytes int) time.Duration

// UniformLatency returns a model with the same fixed propagation delay on
// every link, whatever the message size.
func UniformLatency(base time.Duration) LatencyModel {
	return func(_, _ tx.NodeID, _ int) time.Duration { return base }
}

// link is a FIFO pipe between one (from,to) pair with delayed delivery.
// Delivery is pipelined: each message's due time is stamped at Send, so a
// 500µs latency delays every message by 500µs without capping the link's
// throughput at 1/latency (messages in flight overlap, as on a real
// network).
type link struct {
	ch chan timedMessage
}

type timedMessage struct {
	m   Message
	due time.Time
}

// ChanTransport is the in-process transport used by the emulated cluster:
// every node pair gets an ordered link whose delivery goroutine injects the
// latency model's delay. Local sends (from == to) bypass the link and are
// delivered immediately without being counted as network traffic.
type ChanTransport struct {
	// sendMu is held shared for the full duration of every Send and
	// exclusively by Close, so Close can never close a link channel while
	// a Send is mid-enqueue.
	sendMu sync.RWMutex
	closed bool

	mapMu   sync.Mutex
	inboxes map[tx.NodeID]chan Message
	links   map[[2]tx.NodeID]*link

	latency LatencyModel
	stats   Stats
	wg      sync.WaitGroup
}

// NewChanTransport creates a transport for the given nodes. latency may be
// nil for immediate delivery.
func NewChanTransport(nodes []tx.NodeID, latency LatencyModel) *ChanTransport {
	t := &ChanTransport{
		inboxes: make(map[tx.NodeID]chan Message, len(nodes)),
		links:   make(map[[2]tx.NodeID]*link),
		latency: latency,
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

// Send implements Transport.
func (t *ChanTransport) Send(m Message) error {
	t.sendMu.RLock()
	defer t.sendMu.RUnlock()
	if t.closed {
		return fmt.Errorf("network: transport closed")
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
	tm := timedMessage{m: m}
	if t.latency != nil {
		if d := t.latency(m.From, m.To, m.WireSize()); d > 0 {
			tm.due = time.Now().Add(d)
		}
	}
	lk.ch <- tm
	return nil
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
	lk := &link{ch: make(chan timedMessage, 4096)}
	t.links[key] = lk
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for tm := range lk.ch {
			if !tm.due.IsZero() {
				time.Sleep(time.Until(tm.due))
			}
			inbox <- tm.m
		}
	}()
	return lk
}

// Recv implements Transport. Recv of an unknown node returns a nil channel
// (which blocks forever), surfacing wiring bugs fast in tests.
func (t *ChanTransport) Recv(node tx.NodeID) <-chan Message {
	t.mapMu.Lock()
	defer t.mapMu.Unlock()
	return t.inboxes[node]
}

// Close implements Transport. It stops link goroutines and closes all
// inboxes; Send after Close returns an error.
func (t *ChanTransport) Close() {
	t.sendMu.Lock()
	if t.closed {
		t.sendMu.Unlock()
		return
	}
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
}
