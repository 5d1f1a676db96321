package network

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/codec"
	"hermes/internal/tx"
)

// Dial-retry and send-deadline pacing. A dead peer's listener stays bound
// in the orchestrating parent, so a dial to it succeeds at the TCP level
// and then hangs in the version handshake: the 1 s send (and handshake)
// deadline turns that hang into a bounded error the reliable layer's
// retransmission repairs once the peer is back, and two dial attempts 25 ms
// apart ride out a listener that is momentarily refusing without stalling
// the sender behind a dead one.
const (
	tcpDialAttempts   = 2
	tcpDialBackoff    = 25 * time.Millisecond
	tcpDialBackoffCap = 100 * time.Millisecond
	tcpSendTimeout    = time.Second
)

// Wire handshake. Every TCP connection opens with a fixed 16-byte header
// (magic, framing version, sender node id) exchanged in both directions
// before the first frame, so a cluster accidentally started from mixed
// builds fails loudly at connect time instead of corrupting batches
// mid-run.
const (
	handshakeMagic = 0x48524D53 // "HRMS"
	// wireVersion is the TCP framing version. Bump it whenever the frame
	// layout or the encoded form of a Message changes: frames carry no
	// per-field versioning, so the handshake is the only compatibility
	// check. v1 was a gob stream; v2 has v3's bytes but answered clients by
	// transaction ID, so its MsgTxnDone carries no ClientSeq in Seq and a v3
	// submitter would wait forever for a v2 committer's notice. v4 adds the
	// aborting-CounterProc procedure tag, which a v3 build cannot decode.
	// v5 moves the batch flag ahead of the records as a flags byte, tags
	// the records of a multi-transaction push, carries piggybacked acks in
	// a trailer, and lists a batch's ClientSeqs in MsgTxnDone's payload.
	// v6 adds the one-list CounterProc procedure tag, which a v5 build
	// cannot decode.
	wireVersion             = 6
	defaultHandshakeTimeout = 3 * time.Second
	handshakeLen            = 16
)

func handshakeHeader(self tx.NodeID) [handshakeLen]byte {
	var h [handshakeLen]byte
	binary.BigEndian.PutUint32(h[0:4], handshakeMagic)
	binary.BigEndian.PutUint32(h[4:8], wireVersion)
	binary.BigEndian.PutUint64(h[8:16], uint64(int64(self)))
	return h
}

func checkHandshake(h [handshakeLen]byte) (tx.NodeID, error) {
	if m := binary.BigEndian.Uint32(h[0:4]); m != handshakeMagic {
		return 0, fmt.Errorf("bad handshake magic %#x: peer is not a compatible transport", m)
	}
	if v := binary.BigEndian.Uint32(h[4:8]); v != wireVersion {
		return 0, fmt.Errorf("wire version mismatch: peer speaks v%d, this build speaks v%d", v, wireVersion)
	}
	return tx.NodeID(int64(binary.BigEndian.Uint64(h[8:16]))), nil
}

// TCPTransport is a real-socket implementation of Transport for one
// process: it listens on one address, serves every node id the process
// hosts (its own, plus any co-hosted ids), and lazily dials peers. Every
// message to a peer crosses a connection as one self-contained,
// length-prefixed and CRC32C-checked frame (wire.go), written in a single
// Write from a buffer the connection reuses; an inbound frame goes to the
// inbox of its To. A message between hosted ids never touches a socket and
// is not counted as network traffic. A cluster deployment runs one
// TCPTransport per process; the in-process experiments use ChanTransport
// instead, but integration tests run the engine over TCP to show nothing
// depends on the loopback shortcut.
type TCPTransport struct {
	self  tx.NodeID
	addrs map[tx.NodeID]string

	ln net.Listener
	// inboxes has one inbox per hosted id. Built at construction, never
	// mutated after.
	inboxes map[tx.NodeID]*inbox
	quit    chan struct{}
	stats   Stats

	mu       sync.Mutex
	conns    map[tx.NodeID]*tcpConn
	accepted map[net.Conn]struct{} // inbound connections with a live readLoop
	closed   bool
	// wg covers the accept loop, every readLoop and every inbox's
	// moveLoop: Close waits for all of them before closing the inboxes.
	wg sync.WaitGroup

	// Dial and send pacing: the package constants, but for tests that need
	// other values and set the fields before the first Send.
	dialAttempts   int
	dialBackoff    time.Duration
	dialBackoffCap time.Duration
	sendTimeout    time.Duration

	handshakeFails atomic.Int64
	// reconnects counts connections dropped mid-stream (a failed Write on
	// an established connection) and re-dialed; a mid-stream RST from the
	// peer or a fault proxy shows up here, not as a delivery failure.
	reconnects atomic.Int64
	// frameErrors counts inbound connections dropped for wire damage: an
	// implausible frame length, a CRC mismatch, or a payload that passed
	// its CRC and still failed to decode.
	frameErrors atomic.Int64
	// socketBytes counts bytes written to sockets (frame headers included,
	// handshakes not) — what stats, the WireSize model, only estimates.
	// socketWrites counts the Write calls that carried them.
	socketBytes  atomic.Int64
	socketWrites atomic.Int64

	// dialSleepHook, when set (tests), observes each jittered retry wait
	// just before it is slept.
	dialSleepHook func(time.Duration)

	// wrapConn, when set (tests), wraps every freshly dialed connection
	// before the first frame is written — fault-injection tests use it to
	// split and tear writes at the byte level.
	wrapConn func(net.Conn) net.Conn
}

// inbox is one hosted id's delivery queue. An inbound frame waits for room
// in ch, so a slow consumer pushes back on the socket. A send between hosted
// ids never waits: while ch is full it joins overflow, which moveLoop feeds
// into ch in order. Two reliable-layer pumps in one process ack each other
// through these inboxes; if a local send could block, each pump could stall
// on the other's full inbox at once, and neither would drain its own.
type inbox struct {
	ch chan Message

	mu       sync.Mutex
	overflow []Message // local sends waiting for room in ch, oldest first
	closed   bool      // ch is closed: Close holds mu to close it
	kick     chan struct{}
}

type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn
	buf []byte // the frame being written; reused across Sends under mu
}

// maxRetainedBuf caps the frame buffer a connection keeps between
// messages, so one oversized frame (a migration chunk) does not pin its
// memory for the connection's lifetime.
const maxRetainedBuf = 1 << 20

// retained returns buf for reuse by the next message, or nil to let an
// oversized one go.
func retained(buf []byte) []byte {
	if cap(buf) > maxRetainedBuf {
		return nil
	}
	return buf
}

// NewTCPTransport starts a transport for node self, listening on
// addrs[self]. addrs must contain every node that will ever be dialed.
func NewTCPTransport(self tx.NodeID, addrs map[tx.NodeID]string) (*TCPTransport, error) {
	addr, ok := addrs[self]
	if !ok {
		return nil, fmt.Errorf("network: no address for self node %d", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen %s: %w", addr, err)
	}
	return NewTCPTransportListener(self, addrs, ln), nil
}

// NewTCPTransportListener starts a transport for node self and the
// co-hosted ids in hosted on an already bound listener. The cluster
// harness binds every listener in the parent process and passes them to
// child processes as inherited files, which gives each process a race-free
// port and lets the parent know every address before any child starts.
func NewTCPTransportListener(self tx.NodeID, addrs map[tx.NodeID]string, ln net.Listener, hosted ...tx.NodeID) *TCPTransport {
	if addrs == nil {
		addrs = make(map[tx.NodeID]string)
	}
	t := &TCPTransport{
		self:           self,
		addrs:          addrs,
		ln:             ln,
		inboxes:        make(map[tx.NodeID]*inbox, 1+len(hosted)),
		quit:           make(chan struct{}),
		conns:          make(map[tx.NodeID]*tcpConn),
		accepted:       make(map[net.Conn]struct{}),
		dialAttempts:   tcpDialAttempts,
		dialBackoff:    tcpDialBackoff,
		dialBackoffCap: tcpDialBackoffCap,
		sendTimeout:    tcpSendTimeout,
	}
	for _, id := range append([]tx.NodeID{self}, hosted...) {
		in := &inbox{ch: make(chan Message, 4096), kick: make(chan struct{}, 1)}
		t.inboxes[id] = in
		t.wg.Add(1)
		go t.moveLoop(in)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// Addr returns the address the transport is listening on (useful when the
// configured address used port 0).
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.accepted[c] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(c)
	}
}

func (t *TCPTransport) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.accepted, c)
		t.mu.Unlock()
		c.Close()
	}()
	if err := t.handshakeAccept(c); err != nil {
		t.handshakeFails.Add(1)
		log.Printf("network: node %d rejected connection from %s: %v", t.self, c.RemoteAddr(), err)
		return
	}
	br := bufio.NewReader(c)
	var buf []byte // the frame being read; reused, which decodeMessage permits
	for {
		m, err := readFrame(br, &buf)
		if err == nil && t.inboxes[m.To] == nil {
			err = fmt.Errorf("%w: frame for node %d, which this transport does not host", errBadFrame, m.To)
		}
		if err != nil {
			t.noteReadError(c, err)
			return
		}
		select {
		case t.inboxes[m.To].ch <- m:
		case <-t.quit:
			return
		}
	}
}

// errBadFrame marks wire damage, as opposed to a connection that merely
// ended.
var errBadFrame = errors.New("bad frame")

// readFrame reads one frame from br into *buf (grown as needed) and decodes
// it. A stream that ends cleanly between frames returns io.EOF.
func readFrame(br *bufio.Reader, buf *[]byte) (Message, error) {
	var hdr [codec.FrameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Message{}, err
	}
	n, err := codec.PayloadLen(hdr[:])
	if err != nil {
		return Message{}, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	if *buf = retained(*buf); cap(*buf) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, err
	}
	if err := codec.CheckPayload(hdr[:], payload); err != nil {
		return Message{}, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	m, err := decodeMessage(payload)
	if err != nil {
		return Message{}, fmt.Errorf("%w: %d-byte payload with a valid CRC does not decode: %v", errBadFrame, n, err)
	}
	return m, nil
}

// moveLoop feeds in's overflow into its channel, oldest first. A message
// leaves overflow only once it is in the channel, so a local send that
// finds overflow empty cannot overtake one still being moved.
func (t *TCPTransport) moveLoop(in *inbox) {
	defer t.wg.Done()
	for {
		in.mu.Lock()
		if len(in.overflow) == 0 {
			in.overflow = nil // drop the drained backing array
			in.mu.Unlock()
			select {
			case <-in.kick:
				continue
			case <-t.quit:
				return
			}
		}
		m := in.overflow[0]
		in.mu.Unlock()
		select {
		case in.ch <- m:
		case <-t.quit:
			return
		}
		in.mu.Lock()
		in.overflow = in.overflow[1:]
		in.mu.Unlock()
	}
}

// sendLocal delivers m to a hosted id without blocking (see inbox).
func (t *TCPTransport) sendLocal(in *inbox, m Message) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return fmt.Errorf("network: transport closed")
	}
	if len(in.overflow) == 0 {
		select {
		case in.ch <- m:
			return nil
		default:
		}
	}
	in.overflow = append(in.overflow, m)
	select {
	case in.kick <- struct{}{}:
	default:
	}
	return nil
}

// noteReadError accounts for the end of an inbound connection. The peer
// closing between frames and our own Close are silent; wire damage is
// counted and logged; anything else (a reset, a stream torn mid-frame) is
// logged, and the sender's reliable layer retransmits what was lost.
func (t *TCPTransport) noteReadError(c net.Conn, err error) {
	if err == io.EOF {
		return
	}
	select {
	case <-t.quit:
		return
	default:
	}
	if errors.Is(err, errBadFrame) {
		t.frameErrors.Add(1)
	}
	log.Printf("network: node %d dropped connection from %s: %v", t.self, c.RemoteAddr(), err)
}

// handshakeAccept validates the dialer's header and replies with ours. It
// runs before any frame is read, so a peer from an incompatible build (or a
// stray client that is not a transport at all) is turned away with a
// logged error instead of corrupting the stream.
func (t *TCPTransport) handshakeAccept(c net.Conn) error {
	c.SetReadDeadline(time.Now().Add(defaultHandshakeTimeout))
	var h [handshakeLen]byte
	if _, err := io.ReadFull(c, h[:]); err != nil {
		return fmt.Errorf("reading handshake: %w", err)
	}
	if _, err := checkHandshake(h); err != nil {
		return err
	}
	c.SetReadDeadline(time.Time{})
	reply := handshakeHeader(t.self)
	c.SetWriteDeadline(time.Now().Add(defaultHandshakeTimeout))
	if _, err := c.Write(reply[:]); err != nil {
		return fmt.Errorf("writing handshake reply: %w", err)
	}
	c.SetWriteDeadline(time.Time{})
	return nil
}

// handshakeDial sends our header and validates the acceptor's reply.
// timeout bounds the exchange so a wedged peer cannot hold dial forever.
func (t *TCPTransport) handshakeDial(c net.Conn, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = defaultHandshakeTimeout
	}
	h := handshakeHeader(t.self)
	c.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := c.Write(h[:]); err != nil {
		return fmt.Errorf("writing handshake: %w", err)
	}
	c.SetWriteDeadline(time.Time{})
	c.SetReadDeadline(time.Now().Add(timeout))
	var reply [handshakeLen]byte
	if _, err := io.ReadFull(c, reply[:]); err != nil {
		return fmt.Errorf("reading handshake reply: %w", err)
	}
	c.SetReadDeadline(time.Time{})
	if _, err := checkHandshake(reply); err != nil {
		return err
	}
	return nil
}

// HandshakeFailures reports how many inbound connections were rejected for
// a bad or missing handshake.
func (t *TCPTransport) HandshakeFailures() int64 { return t.handshakeFails.Load() }

// Reconnects reports how many established connections broke mid-stream and
// were dropped for re-dial.
func (t *TCPTransport) Reconnects() int64 { return t.reconnects.Load() }

// FrameErrors reports how many inbound connections were dropped for wire
// damage (bad length, CRC mismatch, undecodable payload).
func (t *TCPTransport) FrameErrors() int64 { return t.frameErrors.Load() }

// SocketBytes reports the bytes actually written to sockets as frames.
// Stats().Totals() is the WireSize model of the same traffic.
func (t *TCPTransport) SocketBytes() int64 { return t.socketBytes.Load() }

// SocketWrites reports the Write calls that carried SocketBytes: messages
// sent over SocketWrites is the frames one write amortises — 1 while every
// message is written on its own (docs/PERF.md, "The link layer").
func (t *TCPTransport) SocketWrites() int64 { return t.socketWrites.Load() }

// Send implements Transport. A message to a hosted id goes straight to its
// inbox. A broken connection is dropped and re-dialed once within the same
// call, so a peer that restarted between messages is reconnected
// transparently; the write deadline bounds how long a dead peer that
// stopped reading can stall the sender.
func (t *TCPTransport) Send(m Message) error {
	if in := t.inboxes[m.To]; in != nil {
		return t.sendLocal(in, m)
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := t.dial(m.To)
		if err != nil {
			return err
		}
		timeout := t.sendTimeout
		conn.mu.Lock()
		frame, err := appendFrame(conn.buf[:0], &m)
		if err != nil {
			// The message, not the connection, is at fault.
			conn.mu.Unlock()
			return fmt.Errorf("network: encode for node %d: %w", m.To, err)
		}
		if timeout > 0 {
			conn.c.SetWriteDeadline(time.Now().Add(timeout))
		}
		n, err := conn.c.Write(frame)
		if timeout > 0 {
			conn.c.SetWriteDeadline(time.Time{})
		}
		conn.buf = retained(frame)
		conn.mu.Unlock()
		t.socketWrites.Add(1)
		t.socketBytes.Add(int64(n))
		if err == nil {
			t.stats.Count(m.Type, m.WireSize())
			return nil
		}
		// Drop the broken connection; the next loop iteration (or a later
		// Send) re-dials. The peer may hold a partial frame, so the stream
		// cannot be resumed: the whole connection goes.
		t.reconnects.Add(1)
		t.mu.Lock()
		if t.conns[m.To] == conn {
			delete(t.conns, m.To)
		}
		t.mu.Unlock()
		conn.c.Close()
		lastErr = err
	}
	return fmt.Errorf("network: send to node %d: %w", m.To, lastErr)
}

// dial returns the live connection to node, establishing one if needed.
// Failed dials are retried with capped exponential backoff: during a peer
// restart the address is briefly unreachable, and erroring out on first
// refusal would turn every peer blip into a delivery failure.
func (t *TCPTransport) dial(node tx.NodeID) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("network: transport closed")
	}
	if c, ok := t.conns[node]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr, ok := t.addrs[node]
	attempts, backoff, maxBackoff := t.dialAttempts, t.dialBackoff, t.dialBackoffCap
	hook := t.dialSleepHook
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("network: unknown node %d", node)
	}
	if attempts < 1 {
		attempts = 1
	}
	var raw net.Conn
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			// Full backoff would make every reconnector that lost the same
			// peer at the same moment retry in lockstep and stampede the
			// restarting listener. Jitter the wait uniformly over
			// [backoff/2, backoff] so the herd spreads out while the cap
			// still bounds the worst case.
			wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			if hook != nil {
				hook(wait)
			}
			select {
			case <-time.After(wait):
			case <-t.quit:
				return nil, fmt.Errorf("network: transport closed")
			}
			if backoff *= 2; backoff > maxBackoff && maxBackoff > 0 {
				backoff = maxBackoff
			}
		}
		raw, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("network: dial node %d at %s after %d attempts: %w", node, addr, attempts, err)
	}
	t.mu.Lock()
	hsTimeout := t.sendTimeout
	wrap := t.wrapConn
	t.mu.Unlock()
	if err := t.handshakeDial(raw, hsTimeout); err != nil {
		raw.Close()
		return nil, fmt.Errorf("network: handshake with node %d at %s: %w", node, addr, err)
	}
	wc := raw
	if wrap != nil {
		wc = wrap(raw)
	}
	conn := &tcpConn{c: wc}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		raw.Close()
		return nil, fmt.Errorf("network: transport closed")
	}
	if existing, ok := t.conns[node]; ok {
		raw.Close() // lost the dial race; reuse the winner
		return existing, nil
	}
	t.conns[node] = conn
	return conn, nil
}

// SetAddr registers (or updates) a peer address; used when nodes are added
// dynamically.
func (t *TCPTransport) SetAddr(node tx.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[node] = addr
}

// Stats returns the transport's accounting.
func (t *TCPTransport) Stats() *Stats { return &t.stats }

// Recv implements Transport for a hosted id. Any other id is a wiring bug
// that would leave its consumer blocked forever on a nil channel, so Recv
// panics naming it.
func (t *TCPTransport) Recv(node tx.NodeID) <-chan Message {
	in := t.inboxes[node]
	if in == nil {
		panic(fmt.Sprintf("network: Recv(%d) on the TCP transport of node %d, which does not host node %d", node, t.self, node))
	}
	return in.ch
}

// Close implements Transport.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := t.conns
	t.conns = map[tx.NodeID]*tcpConn{}
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()

	// quit releases the readLoops and moveLoops blocked on a full inbox;
	// once wg drains, only local Sends can reach an inbox, and they check
	// its closed flag under the lock Close closes it under.
	close(t.quit)
	t.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
	t.wg.Wait()
	for _, in := range t.inboxes {
		in.mu.Lock()
		in.closed = true
		close(in.ch)
		in.mu.Unlock()
	}
}
