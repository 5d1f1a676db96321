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

// Dial-retry and send-deadline defaults. A peer that is restarting should
// be reachable again within the retry budget; a peer that is truly dead
// must not wedge a sender forever mid-Write.
const (
	defaultDialAttempts   = 6
	defaultDialBackoff    = 10 * time.Millisecond
	defaultDialBackoffCap = 320 * time.Millisecond
	defaultSendTimeout    = 10 * time.Second
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
	// submitter would wait forever for a v2 committer's notice.
	wireVersion             = 3
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

// TCPTransport is a real-socket implementation of Transport for a single
// node: it listens on its own address and lazily dials peers. Every message
// crosses a connection as one self-contained, length-prefixed and
// CRC32C-checked frame (wire.go), written in a single Write from a buffer
// the connection reuses. A cluster deployment runs one TCPTransport per
// process; the in-process experiments use ChanTransport instead, but
// integration tests run the engine over TCP to show nothing depends on the
// loopback shortcut.
type TCPTransport struct {
	self  tx.NodeID
	addrs map[tx.NodeID]string

	ln    net.Listener
	inbox chan Message
	quit  chan struct{}
	stats Stats

	mu       sync.Mutex
	conns    map[tx.NodeID]*tcpConn
	accepted map[net.Conn]struct{} // inbound connections with a live readLoop
	closed   bool
	// wg covers the accept loop, every readLoop, and every self-Send past
	// its closed check: Close waits for all of them before closing inbox.
	wg sync.WaitGroup

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

// NewTCPTransportListener starts a transport for node self on an already
// bound listener. The cluster harness binds every listener in the parent
// process and passes them to child processes as inherited files, which
// gives each process a race-free port and lets the parent know every
// address before any child starts.
func NewTCPTransportListener(self tx.NodeID, addrs map[tx.NodeID]string, ln net.Listener) *TCPTransport {
	if addrs == nil {
		addrs = make(map[tx.NodeID]string)
	}
	t := &TCPTransport{
		self:           self,
		addrs:          addrs,
		ln:             ln,
		inbox:          make(chan Message, 4096),
		quit:           make(chan struct{}),
		conns:          make(map[tx.NodeID]*tcpConn),
		accepted:       make(map[net.Conn]struct{}),
		dialAttempts:   defaultDialAttempts,
		dialBackoff:    defaultDialBackoff,
		dialBackoffCap: defaultDialBackoffCap,
		sendTimeout:    defaultSendTimeout,
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
		if err != nil {
			t.noteReadError(c, err)
			return
		}
		select {
		case t.inbox <- m:
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

// SetSendTimeout overrides the per-message write deadline (0 disables).
func (t *TCPTransport) SetSendTimeout(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sendTimeout = d
}

// SetDialRetry overrides the dial-retry policy: attempts tries with
// exponential backoff starting at backoff and capped at backoffCap.
// attempts < 1 means a single try.
func (t *TCPTransport) SetDialRetry(attempts int, backoff, backoffCap time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dialAttempts = attempts
	t.dialBackoff = backoff
	t.dialBackoffCap = backoffCap
}

// Send implements Transport. A broken connection is dropped and re-dialed
// once within the same call, so a peer that restarted between messages is
// reconnected transparently; the write deadline bounds how long a dead
// peer that stopped reading can stall the sender.
func (t *TCPTransport) Send(m Message) error {
	if m.To == t.self {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return fmt.Errorf("network: transport closed")
		}
		t.wg.Add(1) // Close closes inbox only after this send has left
		t.mu.Unlock()
		defer t.wg.Done()
		select {
		case t.inbox <- m:
			return nil
		case <-t.quit:
			return fmt.Errorf("network: transport closed")
		}
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := t.dial(m.To)
		if err != nil {
			return err
		}
		t.mu.Lock()
		timeout := t.sendTimeout
		t.mu.Unlock()
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
			t.stats.Count(m.WireSize())
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

// Recv implements Transport. Only the transport's own node has an inbox.
func (t *TCPTransport) Recv(node tx.NodeID) <-chan Message {
	if node != t.self {
		return nil
	}
	return t.inbox
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

	// quit releases self-Sends and readLoops blocked on a full inbox; none
	// can start after closed was set under mu, so once wg drains no sender
	// is left and the inbox can close.
	close(t.quit)
	t.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
	t.wg.Wait()
	close(t.inbox)
}
