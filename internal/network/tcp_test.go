package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/codec"
	"hermes/internal/leaktest"
	"hermes/internal/tx"
)

// errPortStolen marks a scenario run invalidated by the inherent race in
// handing out a "free" port: between reserving the address and the
// scenario's use of it, another process on the machine may bind (or
// connect to) it. Scenarios that depend on a port being genuinely free are
// retried on this error instead of failing the suite.
var errPortStolen = errors.New("reserved port was taken by another process")

// reservePort grabs a free loopback port and releases it, so a test can
// hand out an address that nothing is listening on *yet*. Anything built
// on it must treat "the port was not actually free" as retryable — see
// retryPortScenario.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// retryPortScenario runs a reserved-port scenario until it completes
// without a port steal. Real assertion failures inside the scenario fail
// the test directly; only errPortStolen is retried.
func retryPortScenario(t *testing.T, scenario func(t *testing.T) error) {
	t.Helper()
	const attempts = 5
	for i := 0; i < attempts; i++ {
		err := scenario(t)
		if err == nil {
			return
		}
		if !errors.Is(err, errPortStolen) {
			t.Fatal(err)
		}
		t.Logf("attempt %d: %v; retrying", i+1, err)
	}
	t.Skipf("reserved port stolen %d times in a row; machine too busy for this scenario", attempts)
}

// TestTCPTransportDialRetry sends to a peer whose listener comes up only
// after the first dial attempts have been refused: the capped-backoff
// retry inside dial() must ride out the gap instead of erroring.
func TestTCPTransportDialRetry(t *testing.T) {
	retryPortScenario(t, func(t *testing.T) error {
		peerAddr := reservePort(t)
		addrs := map[tx.NodeID]string{0: "127.0.0.1:0", 1: peerAddr}
		t0, err := NewTCPTransport(0, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer t0.Close()
		t0.SetDialRetry(40, 5*time.Millisecond, 40*time.Millisecond)
		t0.SetSendTimeout(500 * time.Millisecond)

		// Bring the peer up only after the sender has started dialing. The
		// peer binds the reserved address itself; if someone else grabbed it
		// in the window, the bind fails and the whole scenario retries on a
		// fresh port.
		type lateRes struct {
			tr  *TCPTransport
			err error
		}
		lateUp := make(chan lateRes, 1)
		go func() {
			time.Sleep(30 * time.Millisecond)
			ln, err := net.Listen("tcp", peerAddr)
			if err != nil {
				lateUp <- lateRes{nil, err}
				return
			}
			lateUp <- lateRes{NewTCPTransportListener(1, map[tx.NodeID]string{0: t0.Addr(), 1: peerAddr}, ln), nil}
		}()

		sendErr := t0.Send(Message{From: 0, To: 1, Type: MsgControl, Txn: 11})
		r := <-lateUp
		if r.err != nil {
			return errPortStolen
		}
		defer r.tr.Close()
		if sendErr != nil {
			// A thief that *listens* on the stolen port makes the dial
			// succeed and the handshake fail; indistinguishable from a retry
			// bug in one run, so retry — a real bug fails every attempt.
			return errPortStolen
		}
		select {
		case m := <-r.tr.Recv(1):
			if m.Txn != 11 {
				t.Fatalf("got %+v", m)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("message not delivered after retry")
		}
		return nil
	})
}

// TestTCPTransportDialGivesUp bounds the retry budget: with nothing ever
// listening, Send must return an error instead of spinning forever. The
// short send timeout makes the outcome identical even if another process
// steals the reserved port and listens on it (the handshake then fails
// within the timeout instead of the dial being refused).
func TestTCPTransportDialGivesUp(t *testing.T) {
	dead := reservePort(t)
	t0, err := NewTCPTransport(0, map[tx.NodeID]string{0: "127.0.0.1:0", 1: dead})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t0.SetDialRetry(3, time.Millisecond, 4*time.Millisecond)
	t0.SetSendTimeout(100 * time.Millisecond)
	start := time.Now()
	if err := t0.Send(Message{From: 0, To: 1}); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry budget not capped: %v", elapsed)
	}
}

// TestTCPTransportDialRetryJitter pins the reconnect backoff's jitter:
// every observed retry wait must stay within the configured cap, and the
// waits must not all be identical — a fixed schedule would make every
// reconnector that lost the same peer hammer it in lockstep.
func TestTCPTransportDialRetryJitter(t *testing.T) {
	retryPortScenario(t, func(t *testing.T) error {
		dead := reservePort(t)
		t0, err := NewTCPTransport(0, map[tx.NodeID]string{0: "127.0.0.1:0", 1: dead})
		if err != nil {
			t.Fatal(err)
		}
		defer t0.Close()
		const (
			attempts = 12
			base     = time.Millisecond
			cap      = 4 * time.Millisecond
		)
		var waits []time.Duration
		var mu sync.Mutex
		t0.mu.Lock()
		t0.dialSleepHook = func(d time.Duration) {
			mu.Lock()
			waits = append(waits, d)
			mu.Unlock()
		}
		t0.mu.Unlock()
		t0.SetDialRetry(attempts, base, cap)
		t0.SetSendTimeout(100 * time.Millisecond)
		if err := t0.Send(Message{From: 0, To: 1}); err == nil {
			t.Fatal("send to dead peer succeeded")
		}
		mu.Lock()
		defer mu.Unlock()
		if len(waits) != attempts-1 {
			// Fewer waits than retries means some dial attempt *connected* —
			// the reserved port was taken by a live listener mid-test.
			return errPortStolen
		}
		allSame := true
		for i, w := range waits {
			if w <= 0 || w > cap {
				t.Fatalf("retry wait %d = %v outside (0, %v]", i, w, cap)
			}
			if w != waits[0] {
				allSame = false
			}
		}
		// Most waits draw from [cap/2, cap] once the backoff doubles past the
		// cap; 11 identical draws from a 2ms+1 window happen with probability
		// ~(1/2001)^10 — if they are all equal, the jitter is not being
		// applied.
		if allSame {
			t.Fatalf("all %d retry waits identical (%v); backoff is not jittered", len(waits), waits[0])
		}
		return nil
	})
}

// TestTCPTransportSendDeadline wedges a peer — it completes the version
// handshake, never reads afterwards, and stops listening — and checks the
// write deadline unblocks the sender with an error instead of hanging
// forever.
func TestTCPTransportSendDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wedged := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		ln.Close() // no second chance: the re-dial after the timeout must fail
		// Answer the handshake by hand so the dial succeeds; then go silent.
		var h [handshakeLen]byte
		if _, err := io.ReadFull(c, h[:]); err != nil {
			c.Close()
			return
		}
		reply := handshakeHeader(1)
		if _, err := c.Write(reply[:]); err != nil {
			c.Close()
			return
		}
		wedged <- c
	}()

	t0, err := NewTCPTransport(0, map[tx.NodeID]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t0.SetDialRetry(1, 0, 0)
	t0.SetSendTimeout(150 * time.Millisecond)

	// Big payloads fill the kernel socket buffers quickly; once they are
	// full, Write blocks until the write deadline fires.
	payload := make([]byte, 1<<20)
	deadline := time.Now().Add(30 * time.Second)
	var sendErr error
	for time.Now().Before(deadline) {
		if sendErr = t0.Send(Message{From: 0, To: 1, Payload: payload}); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("sends to a never-reading peer kept succeeding")
	}
	select {
	case c := <-wedged:
		c.Close()
	default:
	}
}

// TestTCPTransportReconnect restarts the receiving peer on the same port
// and checks the sender transparently re-dials inside Send instead of
// failing on the stale connection.
func TestTCPTransportReconnect(t *testing.T) {
	addrs := map[tx.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, err := NewTCPTransport(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	addrs[0] = t0.Addr()
	t1, err := NewTCPTransport(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := t1.Addr()
	t0.SetAddr(1, peerAddr)

	if err := t0.Send(Message{From: 0, To: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-t1.Recv(1):
	case <-time.After(2 * time.Second):
		t.Fatal("initial message not delivered")
	}

	// "Restart" the peer: tear it down and bring a new transport up on the
	// same address, like RestartNode does for a crashed process.
	t1.Close()
	t0.SetDialRetry(40, 5*time.Millisecond, 40*time.Millisecond)
	t1b, err := NewTCPTransport(1, map[tx.NodeID]string{0: t0.Addr(), 1: peerAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer t1b.Close()

	// The first write after the peer died may be swallowed by the kernel
	// before the RST arrives; that loss is the reliable layer's problem.
	// What the transport owes us is that Send keeps working and a message
	// reaches the restarted peer without any explicit reset call.
	delivered := false
	for i := 0; i < 50 && !delivered; i++ {
		if err := t0.Send(Message{From: 0, To: 1, Seq: uint64(100 + i)}); err != nil {
			t.Fatalf("send %d after peer restart: %v", i, err)
		}
		select {
		case <-t1b.Recv(1):
			delivered = true
		case <-time.After(50 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("no message reached the restarted peer")
	}
}

// TestTCPTransportCloseLeaksNothing runs a two-node exchange and checks
// Close tears down the accept/read goroutines on both sides.
func TestTCPTransportCloseLeaksNothing(t *testing.T) {
	defer leaktest.Check(t)()
	addrs := map[tx.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, err := NewTCPTransport(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	addrs[0] = t0.Addr()
	t1, err := NewTCPTransport(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t0.SetAddr(1, t1.Addr())
	for i := 0; i < 10; i++ {
		if err := t0.Send(Message{From: 0, To: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-t1.Recv(1):
		case <-time.After(2 * time.Second):
			t.Fatal("message not delivered")
		}
		if err := t1.Send(Message{From: 1, To: 0, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-t0.Recv(0):
		case <-time.After(2 * time.Second):
			t.Fatal("reply not delivered")
		}
	}
	t1.Close()
	t0.Close()
}

// newTCPPair wires two transports over loopback and returns them.
func newTCPPair(t testing.TB) (*TCPTransport, *TCPTransport) {
	t.Helper()
	addrs := map[tx.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, err := NewTCPTransport(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	addrs[0] = t0.Addr()
	t1, err := NewTCPTransport(1, addrs)
	if err != nil {
		t0.Close()
		t.Fatal(err)
	}
	t0.SetAddr(1, t1.Addr())
	t.Cleanup(func() {
		t0.Close()
		t1.Close()
	})
	return t0, t1
}

// TestTCPTransportHandshakeRejectsGarbage points a raw client at a
// transport's listener and checks the inbound handshake turns it away —
// counted, with no Message ever surfacing on the inbox.
func TestTCPTransportHandshakeRejectsGarbage(t *testing.T) {
	tr, err := NewTCPTransport(0, map[tx.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte("not a transport handshake "), 4)
	if _, err := c.Write(junk); err != nil {
		t.Fatal(err)
	}
	// The acceptor must hang up on us once the magic check fails.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("acceptor kept the connection after a garbage handshake")
	}
	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for tr.HandshakeFailures() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("garbage connection not counted as a handshake failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case m := <-tr.Recv(0):
		t.Fatalf("garbage connection surfaced a message: %+v", m)
	default:
	}
}

// TestTCPTransportHandshakeVersionMismatch dials a peer that answers the
// handshake with a different wire version — the gob-stream v1, the v2 the
// previous build spoke (same bytes, but MsgTxnDone without the ClientSeq),
// and a future one — and checks the dial, and hence Send, fails loudly
// instead of exchanging frames with an incompatible build. The accepting
// side turns such a dialer away the same way.
func TestTCPTransportHandshakeVersionMismatch(t *testing.T) {
	for _, peerVersion := range []uint32{1, 2, wireVersion + 1} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		release := make(chan struct{})
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			var h [handshakeLen]byte
			if _, err := io.ReadFull(c, h[:]); err != nil {
				return
			}
			reply := handshakeHeader(1)
			binary.BigEndian.PutUint32(reply[4:8], peerVersion)
			c.Write(reply[:])
			// Hold the conn open: the *version check*, not a hangup, must
			// fail the dial.
			<-release
		}()

		t0, err := NewTCPTransport(0, map[tx.NodeID]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		t0.SetDialRetry(1, 0, 0)
		err = t0.Send(Message{From: 0, To: 1})
		close(release)
		if err == nil {
			t.Fatalf("send to a peer speaking wire v%d succeeded", peerVersion)
		}
		if want := fmt.Sprintf("peer speaks v%d, this build speaks v%d", peerVersion, wireVersion); !contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}

		// The other direction: that build dials us.
		c, err := net.Dial("tcp", t0.Addr())
		if err != nil {
			t.Fatal(err)
		}
		h := handshakeHeader(1)
		binary.BigEndian.PutUint32(h[4:8], peerVersion)
		c.Write(h[:])
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatalf("acceptor answered a v%d dialer", peerVersion)
		}
		c.Close()
		if n := t0.HandshakeFailures(); n != 1 {
			t.Fatalf("HandshakeFailures = %d after a v%d dialer, want 1", n, peerVersion)
		}
		t0.Close()
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// splitConn tears every write into single-byte writes, so each frame
// crosses the wire as hundreds of partial writes.
type splitConn struct{ net.Conn }

func (s splitConn) Write(p []byte) (int, error) {
	for i := range p {
		if _, err := s.Conn.Write(p[i : i+1]); err != nil {
			return i, err
		}
	}
	return len(p), nil
}

// TestTCPTransportPartialWrites forces the sender to dribble every frame
// one byte at a time and checks the receiver reassembles every message
// intact, in order, with no corruption.
func TestTCPTransportPartialWrites(t *testing.T) {
	t0, t1 := newTCPPair(t)
	t0.mu.Lock()
	t0.wrapConn = func(c net.Conn) net.Conn { return splitConn{c} }
	t0.mu.Unlock()

	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := t0.Send(Message{From: 0, To: 1, Seq: uint64(i + 1), Payload: payload}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-t1.Recv(1):
			if m.Seq != uint64(i+1) {
				t.Fatalf("message %d arrived with seq %d", i, m.Seq)
			}
			if !bytes.Equal(m.Payload, payload) {
				t.Fatalf("message %d payload corrupted", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
}

// TestTCPTransportMidStreamReset RSTs the established connection from the
// receiving side mid-conversation (SO_LINGER 0, the same teardown the
// netchaos proxy injects) and checks the sender counts the broken stream
// as a reconnect, re-dials inside Send, and keeps delivering.
func TestTCPTransportMidStreamReset(t *testing.T) {
	defer leaktest.Check(t)()
	addrs := map[tx.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, err := NewTCPTransport(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	addrs[0] = t0.Addr()
	t1, err := NewTCPTransport(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t0.SetAddr(1, t1.Addr())

	if err := t0.Send(Message{From: 0, To: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-t1.Recv(1):
	case <-time.After(2 * time.Second):
		t.Fatal("initial message not delivered")
	}

	// Reset every connection t1 has accepted: linger 0 turns the close
	// into an RST, so the sender's side breaks mid-stream instead of
	// seeing a clean FIN after a drained buffer.
	t1.mu.Lock()
	var accepted []net.Conn
	for c := range t1.accepted {
		accepted = append(accepted, c)
	}
	t1.mu.Unlock()
	if len(accepted) == 0 {
		t.Fatal("receiver accepted no connections")
	}
	for _, c := range accepted {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.Close()
	}

	// The first write after the RST may land in the kernel buffer before
	// the reset is observed (that loss is the reliable layer's problem);
	// what the transport owes us is that some later Send notices the dead
	// stream, counts it, and re-dials within the call.
	delivered := false
	for i := 0; i < 50 && !delivered; i++ {
		if err := t0.Send(Message{From: 0, To: 1, Seq: uint64(100 + i)}); err != nil {
			t.Fatalf("send %d after mid-stream reset: %v", i, err)
		}
		select {
		case <-t1.Recv(1):
			delivered = true
		case <-time.After(50 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("no message reached the peer after the mid-stream reset")
	}
	if n := t0.Reconnects(); n == 0 {
		t.Fatal("mid-stream reset not counted as a reconnect")
	}
}

// TestTCPTransportHalfOpenReconnect wedges the peer half-open — the
// handshake completes, then it never reads another byte and its listener
// goes away, so from the sender's view the stream is alive but frozen. The
// send deadline must break the stall, the dead stream must count as a
// reconnect, and once a real transport comes back on the same address the
// sender must deliver to it with no explicit reset call.
func TestTCPTransportHalfOpenReconnect(t *testing.T) {
	retryPortScenario(t, func(t *testing.T) error {
		peerAddr := reservePort(t)
		ln, err := net.Listen("tcp", peerAddr)
		if err != nil {
			return errPortStolen
		}
		wedged := make(chan net.Conn, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			ln.Close() // the re-dial must wait for the real replacement peer
			var h [handshakeLen]byte
			if _, err := io.ReadFull(c, h[:]); err != nil {
				c.Close()
				return
			}
			reply := handshakeHeader(1)
			if _, err := c.Write(reply[:]); err != nil {
				c.Close()
				return
			}
			wedged <- c // held open, never read from: half-open stall
		}()

		t0, err := NewTCPTransport(0, map[tx.NodeID]string{0: "127.0.0.1:0", 1: peerAddr})
		if err != nil {
			t.Fatal(err)
		}
		defer t0.Close()
		t0.SetDialRetry(40, 5*time.Millisecond, 40*time.Millisecond)
		t0.SetSendTimeout(150 * time.Millisecond)

		// Fill the kernel buffers until the frozen stream trips the write
		// deadline and Send drops the connection.
		payload := make([]byte, 1<<20)
		deadline := time.Now().Add(30 * time.Second)
		for t0.Reconnects() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("half-open stall never tripped the send deadline")
			}
			// Errors are expected once the deadline fires: the re-dial
			// inside the same call finds no listener yet.
			t0.Send(Message{From: 0, To: 1, Payload: payload})
		}
		select {
		case c := <-wedged:
			c.Close()
		default:
			return errPortStolen // someone else answered the handshake
		}

		// The peer comes back for real; the sender must reconnect and
		// deliver without any explicit reset.
		ln2, err := net.Listen("tcp", peerAddr)
		if err != nil {
			return errPortStolen
		}
		t1 := NewTCPTransportListener(1, map[tx.NodeID]string{0: t0.Addr(), 1: peerAddr}, ln2)
		defer t1.Close()
		delivered := false
		for i := 0; i < 50 && !delivered; i++ {
			if err := t0.Send(Message{From: 0, To: 1, Seq: uint64(200 + i)}); err != nil {
				continue // earlier retries may still catch a refused dial
			}
			select {
			case <-t1.Recv(1):
				delivered = true
			case <-time.After(50 * time.Millisecond):
			}
		}
		if !delivered {
			t.Fatal("no message reached the recovered peer after the half-open stall")
		}
		return nil
	})
}

// tearConn writes through until its budget is spent, then drops the
// connection mid-frame — a torn write, as when a sender dies or the kernel
// resets the stream partway through a frame.
type tearConn struct {
	net.Conn
	budget *atomic.Int64
}

func (s tearConn) Write(p []byte) (int, error) {
	left := s.budget.Add(-int64(len(p))) + int64(len(p))
	if left <= 0 {
		s.Conn.Close()
		return 0, errors.New("torn connection")
	}
	if int64(len(p)) > left {
		n, _ := s.Conn.Write(p[:left])
		s.Conn.Close()
		return n, errors.New("torn connection")
	}
	return s.Conn.Write(p)
}

// TestTCPTransportTornFrame tears the connection partway through the first
// frame and checks (a) the receiver never surfaces a corrupt Message from
// the half-frame, and (b) the sender's in-call re-dial delivers the
// message cleanly on a fresh connection.
func TestTCPTransportTornFrame(t *testing.T) {
	t0, t1 := newTCPPair(t)
	var budget atomic.Int64
	budget.Store(10) // torn two bytes into the first frame's payload
	first := true
	t0.mu.Lock()
	t0.wrapConn = func(c net.Conn) net.Conn {
		if first {
			first = false
			return tearConn{c, &budget}
		}
		return c // the re-dialed connection carries frames intact
	}
	t0.mu.Unlock()

	payload := []byte("must arrive exactly once, intact")
	if err := t0.Send(Message{From: 0, To: 1, Seq: 7, Type: MsgControl, Payload: payload}); err != nil {
		t.Fatalf("send across torn connection: %v", err)
	}
	select {
	case m := <-t1.Recv(1):
		if m.Seq != 7 || m.Type != MsgControl || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("message arrived corrupted: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived after the torn frame")
	}
	// The half-frame must not have produced a second (corrupt) message.
	select {
	case m := <-t1.Recv(1):
		t.Fatalf("torn frame surfaced an extra message: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestTCPTransportConcurrentSelfSendClose closes a transport while
// goroutines are self-sending into an inbox nobody drains: more messages
// than it buffers, so some senders are blocked mid-send when Close runs.
// None may panic on the closed inbox and none may stay blocked.
func TestTCPTransportConcurrentSelfSendClose(t *testing.T) {
	defer leaktest.Check(t)()
	for round := 0; round < 10; round++ {
		tr, err := NewTCPTransport(0, map[tx.NodeID]string{0: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ { // 8000 in all against a 4096-slot inbox
					if tr.Send(Message{From: 0, To: 0, Seq: uint64(i)}) != nil {
						return
					}
				}
			}()
		}
		time.Sleep(time.Millisecond)
		tr.Close()
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("self-senders still blocked after Close")
		}
		if err := tr.Send(Message{From: 0, To: 0}); err == nil {
			t.Fatal("self-send after Close succeeded")
		}
	}
}

// waitNoneAccepted waits for every inbound connection's reader to exit and
// drop its entry from the accepted set.
func waitNoneAccepted(t *testing.T, tr *TCPTransport) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr.mu.Lock()
		n := len(tr.accepted)
		tr.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("transport still tracks %d inbound connections after all were closed", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPTransportAcceptedSetShrinks churns the sender's connection — the
// shape of RST storms under netchaos and of supervisor restarts — and
// checks the receiver forgets each inbound connection when its reader
// exits instead of holding one net.Conn per reconnect.
func TestTCPTransportAcceptedSetShrinks(t *testing.T) {
	defer leaktest.Check(t)()
	t0, t1 := newTCPPair(t)
	const churn = 8
	for i := 0; i < churn; i++ {
		if err := t0.Send(Message{From: 0, To: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-t1.Recv(1):
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d not delivered", i)
		}
		// Drop the established connection; the next Send dials a new one.
		t0.mu.Lock()
		conn := t0.conns[1]
		delete(t0.conns, 1)
		t0.mu.Unlock()
		conn.c.Close()
	}
	waitNoneAccepted(t, t1)
	t0.Close()
	t1.Close()
}

// TestTCPTransportMessagesDoNotAliasReadBuffer sends distinct payloads of
// one size back to back: the reader decodes the second into the very
// buffer the first was read into, so the first must own its bytes.
func TestTCPTransportMessagesDoNotAliasReadBuffer(t *testing.T) {
	t0, t1 := newTCPPair(t)
	first := bytes.Repeat([]byte{0xAA}, 256)
	second := bytes.Repeat([]byte{0x55}, 256)
	for i, p := range [][]byte{first, second} {
		m := Message{From: 0, To: 1, Seq: uint64(i), Payload: p, Records: []Record{{Key: 1, Value: p}}}
		if err := t0.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	var got [2]Message
	for i := range got {
		select {
		case got[i] = <-t1.Recv(1):
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d not delivered", i)
		}
	}
	if !bytes.Equal(got[0].Payload, first) || !bytes.Equal(got[0].Records[0].Value, first) {
		t.Fatal("the first message changed when the second arrived: it aliases the read buffer")
	}
	if !bytes.Equal(got[1].Payload, second) {
		t.Fatal("second message corrupted")
	}
}

// dialRaw connects to tr as a hand-rolled peer and completes the handshake,
// so a test can write arbitrary bytes where frames belong.
func dialRaw(t *testing.T, tr *TCPTransport) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	h := handshakeHeader(1)
	if _, err := c.Write(h[:]); err != nil {
		t.Fatal(err)
	}
	var reply [handshakeLen]byte
	if _, err := io.ReadFull(c, reply[:]); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTCPTransportCountsFrameErrors feeds a transport each kind of wire
// damage behind a good handshake. Every one must drop the connection,
// count as a frame error, and surface no message; a connection that ends
// cleanly between frames or tears mid-frame is not wire damage.
func TestTCPTransportCountsFrameErrors(t *testing.T) {
	tr, err := NewTCPTransport(0, map[tx.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	good, err := appendFrame(nil, &Message{From: 1, To: 0, Seq: 5})
	if err != nil {
		t.Fatal(err)
	}
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 1
	tooLong := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(tooLong, codec.MaxFrameLen+1)
	undecodable := append(codec.BeginFrame(nil), "a valid CRC over bytes that are no message"...)
	if err := codec.EndFrame(undecodable, 0); err != nil {
		t.Fatal(err)
	}

	for i, damage := range [][]byte{badCRC, tooLong, undecodable} {
		c := dialRaw(t, tr)
		if _, err := c.Write(append(append([]byte(nil), good...), damage...)); err != nil {
			t.Fatal(err)
		}
		// The intact frame ahead of the damage is delivered...
		select {
		case m := <-tr.Recv(0):
			if m.Seq != 5 {
				t.Fatalf("case %d: got %+v", i, m)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("case %d: intact frame not delivered", i)
		}
		// ...then the acceptor hangs up and counts the damage.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatalf("case %d: acceptor kept the connection after a damaged frame", i)
		}
		if n := tr.FrameErrors(); n != int64(i+1) {
			t.Fatalf("case %d: FrameErrors = %d, want %d", i, n, i+1)
		}
	}

	before := tr.FrameErrors()
	c := dialRaw(t, tr)
	c.Write(good[:len(good)/2]) // torn mid-frame: the link's problem, not damage
	c.Close()
	c = dialRaw(t, tr)
	c.Close() // clean close between frames
	waitNoneAccepted(t, tr)
	if n := tr.FrameErrors(); n != before {
		t.Fatalf("a closed or torn connection counted as %d frame errors", n-before)
	}
	select {
	case m := <-tr.Recv(0):
		t.Fatalf("damaged input surfaced a message: %+v", m)
	default:
	}
}

// TestTCPTransportSocketBytes: SocketBytes counts what Write put on the
// socket — the frames, headers included — next to the WireSize model.
func TestTCPTransportSocketBytes(t *testing.T) {
	t0, t1 := newTCPPair(t)
	m := benchRecordPush()
	m.From, m.To = 0, 1
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := t0.Send(m); err != nil {
			t.Fatal(err)
		}
		<-t1.Recv(1)
	}
	if got := t0.SocketBytes(); got != int64(n*len(frame)) {
		t.Fatalf("SocketBytes = %d, want %d frames of %d bytes", got, n, len(frame))
	}
	if _, model := t0.Stats().Totals(); model != int64(n*m.WireSize()) {
		t.Fatalf("modelled bytes = %d, want %d", model, n*m.WireSize())
	}
}

// BenchmarkLinkThroughput pushes 64-byte record pushes through the whole
// link layer — Reliable over a loopback TCPTransport pair — from 1, 4 and 16
// concurrent senders. ns/op is per message; acks/msg and writes/msg show
// what the link pays per message: the per-drain ack takes acks/msg from 1
// towards 0, and writes/msg (both endpoints' socket writes, data and acks)
// from 2 towards 1, where it stays until something coalesces data frames.
func BenchmarkLinkThroughput(b *testing.B) {
	for _, senders := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			t0, t1 := newTCPPair(b)
			t1.SetAddr(0, t0.Addr())
			opts := func(self, peer tx.NodeID) ReliableOpts {
				return ReliableOpts{
					RecvFor: []tx.NodeID{self}, SendTo: []tx.NodeID{peer},
					RetransmitBase: 50 * time.Millisecond, RetransmitCap: time.Second, // the cluster's pacing
				}
			}
			r0, r1 := NewReliableWith(t0, opts(0, 1)), NewReliableWith(t1, opts(1, 0))
			defer r0.Close()
			defer r1.Close()
			m := Message{From: 0, To: 1, Type: MsgRecordPush, Records: []Record{{Key: 1, Value: make([]byte, 64)}}}
			// A closed-loop cluster keeps its retransmit windows short; left
			// unbounded, 16 senders outrun the receiver and the benchmark times
			// the shifting of a 100k-message unacked window instead of the link.
			inflight := make(chan struct{}, 256)
			received := make(chan struct{})
			go func() {
				for i := 0; i < b.N; i++ {
					<-r1.Recv(1)
					<-inflight
				}
				close(received)
			}()
			b.ResetTimer()
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				n := b.N / senders
				if s < b.N%senders {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						inflight <- struct{}{}
						if err := r0.Send(m); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			<-received
			b.StopTimer()
			b.ReportMetric(float64(r1.Stats().Acks)/float64(b.N), "acks/msg")
			b.ReportMetric(float64(t0.SocketWrites()+t1.SocketWrites())/float64(b.N), "writes/msg")
		})
	}
}
