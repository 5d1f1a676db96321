package network

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/clock"
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

// Stats accumulates transport-level accounting. All methods are safe for
// concurrent use.
type Stats struct {
	messages atomic.Int64
	bytes    atomic.Int64
}

// Count records one message of size bytes.
func (s *Stats) Count(bytes int) {
	s.messages.Add(1)
	s.bytes.Add(int64(bytes))
}

// Totals returns cumulative messages and bytes.
func (s *Stats) Totals() (messages, bytes int64) {
	return s.messages.Load(), s.bytes.Load()
}

// LatencyModel computes the one-way delivery delay for a message of size
// bytes from one node to another. A nil model means zero delay.
type LatencyModel func(from, to tx.NodeID, bytes int) time.Duration

// UniformLatency returns a model with a fixed propagation delay plus a
// bandwidth term (bytesPerSecond ≤ 0 disables the bandwidth term). It
// approximates the paper's 10 GbE LAN when configured with, e.g.,
// 100 µs base and 1.25 GB/s.
func UniformLatency(base time.Duration, bytesPerSecond float64) LatencyModel {
	return func(_, _ tx.NodeID, bytes int) time.Duration {
		d := base
		if bytesPerSecond > 0 {
			d += time.Duration(float64(bytes) / bytesPerSecond * float64(time.Second))
		}
		return d
	}
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
	clk     clock.Clock
	stats   Stats
	wg      sync.WaitGroup
}

// NewChanTransport creates a transport for the given nodes. latency may be
// nil for immediate delivery.
func NewChanTransport(nodes []tx.NodeID, latency LatencyModel) *ChanTransport {
	return NewChanTransportClock(nodes, latency, clock.Real{})
}

// NewChanTransportClock is NewChanTransport with an injected time source:
// delivery due-times are stamped and waited on through clk, so tests can
// drive the latency model with a clock.Manual instead of real sleeps.
func NewChanTransportClock(nodes []tx.NodeID, latency LatencyModel, clk clock.Clock) *ChanTransport {
	if clk == nil {
		clk = clock.Real{}
	}
	t := &ChanTransport{
		inboxes: make(map[tx.NodeID]chan Message, len(nodes)),
		links:   make(map[[2]tx.NodeID]*link),
		latency: latency,
		clk:     clk,
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
	t.stats.Count(m.WireSize())
	lk := t.getLink(m.From, m.To, inbox)
	tm := timedMessage{m: m}
	if t.latency != nil {
		if d := t.latency(m.From, m.To, m.WireSize()); d > 0 {
			tm.due = t.clk.Now().Add(d)
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
				t.clk.SleepUntil(tm.due)
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
