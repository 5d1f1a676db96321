// The socket seam: a layer of per-link TCP proxies the cluster
// orchestrator places between hermesd processes to subject their *actual
// sockets* to the conditions a production deployment sees. Each directed
// process pair (from -> to) gets its own proxy listener; the orchestrator
// hands process `from` the proxy address instead of `to`'s real one, so
// every byte of data-plane traffic crosses the fault plane while the
// control plane stays direct.
//
// The plane applies a Schedule's link shapes continuously (latency, seeded
// jitter, bandwidth cap — composable into asymmetric WAN profiles, see
// WANProfile) and fires its Events once at their offsets from Start:
// partitions with a timed heal, mid-stream resets (RST, not FIN), and
// half-open stalls. Jitter draws come from a per-link PRNG (linkRand), so
// a logged seed reproduces the same draw sequence per link; event times
// are wall-clock offsets and therefore only as deterministic as the
// scheduler — the engine's whole claim is that this must not matter, and
// the digest-vs-twin gate is what checks it.
//
// The plane deliberately knows nothing about the transport riding it: it
// proxies opaque byte streams, which is exactly what makes the injected
// resets and stalls honest (the handshake, frame codec, and reliable layer
// above all see real kernel-level failures, not simulated ones) — and why
// it refuses message faults.

package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PlaneStats is the plane's cumulative fault accounting over all links.
type PlaneStats struct {
	Conns          int64 // connections accepted and proxied
	Resets         int64 // live connections killed with RST (partition onsets included)
	PartitionDrops int64 // dials rejected while partitioned
	BytesForward   int64 // bytes from dialer to upstream
	BytesReverse   int64 // bytes back to the dialer
}

// linkID identifies one directed proxied link.
type linkID struct{ from, to int }

// Plane owns every per-link proxy of one cluster.
type Plane struct {
	sched Schedule

	mu      sync.Mutex
	links   map[linkID]*link
	started bool
	closed  bool

	quit chan struct{}
	wg   sync.WaitGroup

	conns, resets, partDrops, bytesFwd, bytesRev atomic.Int64
}

// NewPlane builds an idle fault plane for the schedule, refusing its
// message faults. Kills and Disk are the orchestrator's to apply; the
// plane leaves them be. Links are routed between processes: a co-hosted
// id (the sequencer leader) is reached through its host's links. Route the
// links, boot the processes, then Start to arm the events.
func NewPlane(sched Schedule) (*Plane, error) {
	if err := sched.messageErr(); err != nil {
		return nil, err
	}
	return &Plane{
		sched: sched,
		links: make(map[linkID]*link),
		quit:  make(chan struct{}),
	}, nil
}

// Route creates (or returns) the proxy for the directed link from -> to,
// fronting upstream, and returns the address the `from` process should dial
// instead of upstream.
func (p *Plane) Route(from, to int, upstream string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return "", fmt.Errorf("chaos: plane is closed")
	}
	id := linkID{from, to}
	if l, ok := p.links[id]; ok {
		return l.ln.Addr().String(), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("chaos: link %d->%d: %w", from, to, err)
	}
	l := &link{
		p:        p,
		id:       id,
		ln:       ln,
		upstream: upstream,
		sh:       p.sched.shapeOf(from, to),
		rng:      linkRand(p.sched.Seed, from, to),
		conns:    make(map[*connPair]struct{}),
	}
	p.links[id] = l
	p.wg.Add(1)
	go l.acceptLoop()
	return ln.Addr().String(), nil
}

// Start arms the event timeline: event offsets are measured from this call,
// so the orchestrator starts the schedule when the workload starts, not
// when the cluster boots. Idempotent.
func (p *Plane) Start() {
	p.mu.Lock()
	if p.started || p.closed {
		p.mu.Unlock()
		return
	}
	p.started = true
	events := append([]Event(nil), p.sched.Events...)
	p.mu.Unlock()
	if len(events) == 0 {
		return
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		start := time.Now()
		for _, ev := range events {
			wait := ev.At - time.Since(start)
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-p.quit:
					return
				}
			}
			p.apply(ev)
		}
	}()
}

func (p *Plane) apply(ev Event) {
	switch {
	case ev.Partition != nil:
		p.PartitionBetween(ev.Partition.A, ev.Partition.B, ev.Partition.For)
	case ev.Reset != nil:
		p.ResetLink(ev.Reset.From, ev.Reset.To)
	case ev.Stall != nil:
		p.StallLink(ev.Stall.From, ev.Stall.To, ev.Stall.For)
	}
}

// PartitionBetween cuts every link whose ends straddle the A/B split,
// both directions, healing after d.
func (p *Plane) PartitionBetween(a, b []int, d time.Duration) {
	inA, inB := map[int]bool{}, map[int]bool{}
	for _, id := range a {
		inA[id] = true
	}
	for _, id := range b {
		inB[id] = true
	}
	until := time.Now().Add(d)
	p.mu.Lock()
	var cut []*link
	for id, l := range p.links {
		if (inA[id.from] && inB[id.to]) || (inB[id.from] && inA[id.to]) {
			cut = append(cut, l)
		}
	}
	p.mu.Unlock()
	for _, l := range cut {
		l.partition(until)
	}
}

// ResetLink RST-kills every live connection on the directed link.
func (p *Plane) ResetLink(from, to int) {
	if l := p.link(from, to); l != nil {
		l.reset()
	}
}

// StallLink half-opens the directed link for d: established connections
// stay up but no bytes move until the stall passes.
func (p *Plane) StallLink(from, to int, d time.Duration) {
	if l := p.link(from, to); l != nil {
		l.stall(time.Now().Add(d))
	}
}

func (p *Plane) link(from, to int) *link {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.links[linkID{from, to}]
}

// Stats snapshots the plane's counters.
func (p *Plane) Stats() PlaneStats {
	return PlaneStats{
		Conns:          p.conns.Load(),
		Resets:         p.resets.Load(),
		PartitionDrops: p.partDrops.Load(),
		BytesForward:   p.bytesFwd.Load(),
		BytesReverse:   p.bytesRev.Load(),
	}
}

// Close tears the plane down: listeners closed, live connections reset,
// every pump and the timeline joined. Idempotent.
func (p *Plane) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	links := make([]*link, 0, len(p.links))
	for _, l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	close(p.quit)
	for _, l := range links {
		l.ln.Close()
		l.killAll(false)
	}
	p.wg.Wait()
}

// link is one directed proxy: a listener, its shape, and the live
// connection pairs.
type link struct {
	p        *Plane
	id       linkID
	ln       net.Listener
	upstream string
	sh       Shape

	rngMu sync.Mutex
	rng   *rand.Rand

	mu        sync.Mutex
	conns     map[*connPair]struct{}
	partUntil time.Time
	stallTill time.Time
}

// connPair is one proxied connection: the accepted client half and the
// upstream half.
type connPair struct {
	cli, up net.Conn
}

// stamp is the due time of n bytes read at now from one direction of the
// link, whose occupancy horizon is *free: the link's shape (Shape.due)
// with a jitter drawn from its PRNG.
func (l *link) stamp(now time.Time, n int, free *time.Time) time.Time {
	return l.sh.due(now, n, l.jitter(l.sh.Jitter), free)
}

func (l *link) jitter(j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	l.rngMu.Lock()
	d := time.Duration(l.rng.Int63n(int64(j)))
	l.rngMu.Unlock()
	return d
}

func (l *link) partitioned() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Now().Before(l.partUntil)
}

// stalledUntil returns the current stall horizon (zero when flowing).
func (l *link) stalledUntil() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	if time.Now().Before(l.stallTill) {
		return l.stallTill
	}
	return time.Time{}
}

func (l *link) partition(until time.Time) {
	l.mu.Lock()
	l.partUntil = until
	l.mu.Unlock()
	// A real partition severs established flows too; RST mirrors what the
	// peer's kernel reports once its retransmissions give up.
	l.killAll(true)
}

func (l *link) reset() {
	l.killAll(true)
}

func (l *link) stall(until time.Time) {
	l.mu.Lock()
	l.stallTill = until
	l.mu.Unlock()
}

// killAll resets every live pair; counted when it is an injected fault.
func (l *link) killAll(count bool) {
	l.mu.Lock()
	pairs := make([]*connPair, 0, len(l.conns))
	for cp := range l.conns {
		pairs = append(pairs, cp)
	}
	l.mu.Unlock()
	for _, cp := range pairs {
		if count {
			l.p.resets.Add(1)
		}
		rstClose(cp.cli)
		rstClose(cp.up)
	}
}

// rstClose closes c with linger 0 so the peer sees ECONNRESET, not EOF.
func rstClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

func (l *link) acceptLoop() {
	defer l.p.wg.Done()
	for {
		cli, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if l.partitioned() {
			l.p.partDrops.Add(1)
			rstClose(cli)
			continue
		}
		up, err := net.DialTimeout("tcp", l.upstream, 3*time.Second)
		if err != nil {
			rstClose(cli)
			continue
		}
		cp := &connPair{cli: cli, up: up}
		l.mu.Lock()
		l.conns[cp] = struct{}{}
		l.mu.Unlock()
		select {
		case <-l.p.quit:
			// Close took its killAll snapshot while this pair was being
			// dialed; nothing else would ever reset it, and its pumps
			// would hold Close's wg.Wait forever.
			l.killAll(false)
			return
		default:
		}
		l.p.conns.Add(1)
		l.p.wg.Add(2)
		go l.pump(cp, cli, up, &l.p.bytesFwd)
		go l.pump(cp, up, cli, &l.p.bytesRev)
	}
}

// chunk is one shaped unit of proxied bytes with its delivery time.
type chunk struct {
	data []byte
	due  time.Time
}

// pump forwards src -> dst under the link's shaping: a reader stamps each
// chunk with its due time (Shape.due: the bandwidth cap's serialization
// delay, then latency + seeded jitter) and a writer releases chunks when
// due — pipelined, so added latency delays bytes without capping
// throughput, exactly like netem's delay queue. The writer also honors
// stalls.
func (l *link) pump(cp *connPair, src, dst net.Conn, bytes *atomic.Int64) {
	defer l.p.wg.Done()
	ch := make(chan chunk, 64)
	done := make(chan struct{})
	// Writer half.
	go func() {
		defer close(done)
		for c := range ch {
			if !l.waitUntil(c.due) {
				continue // plane closing; drain the channel
			}
			if _, err := dst.Write(c.data); err != nil {
				// Keep draining so the reader never blocks on a dead writer.
				continue
			}
			bytes.Add(int64(len(c.data)))
		}
		// EOF from src with the pair still healthy: half-close downstream
		// so graceful shutdowns propagate.
		if tc, ok := dst.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	buf := make([]byte, 32<<10)
	var free time.Time
	for {
		n, err := src.Read(buf)
		if n > 0 {
			due := l.stamp(time.Now(), n, &free)
			select {
			case ch <- chunk{data: append([]byte(nil), buf[:n]...), due: due}:
			case <-l.p.quit:
				err = net.ErrClosed
			}
		}
		if err != nil {
			break
		}
	}
	close(ch)
	<-done
	// Reader side saw EOF or error: tear the pair down so the opposite
	// pump unblocks too, and forget it.
	cp.cli.Close()
	cp.up.Close()
	l.mu.Lock()
	delete(l.conns, cp)
	l.mu.Unlock()
}

// waitUntil sleeps until t (also re-checking the link's stall horizon,
// which may extend while waiting), reporting false if the plane closed.
func (l *link) waitUntil(t time.Time) bool {
	for {
		if st := l.stalledUntil(); st.After(t) {
			t = st
		}
		wait := time.Until(t)
		if wait <= 0 {
			return true
		}
		if wait > 50*time.Millisecond {
			wait = 50 * time.Millisecond // re-check stall extensions
		}
		select {
		case <-time.After(wait):
		case <-l.p.quit:
			return false
		}
	}
}
