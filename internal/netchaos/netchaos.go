// Package netchaos is the real-network counterpart of internal/chaos: a
// layer of per-link TCP proxies the cluster orchestrator places between
// hermesd processes to subject their *actual sockets* to the conditions a
// production deployment sees. Each directed process pair (from -> to) gets
// its own proxy listener; the orchestrator hands process `from` the proxy
// address instead of `to`'s real one, so every byte of data-plane traffic
// crosses the fault plane while the control plane stays direct.
//
// Faults come in two kinds. *Shaping rules* apply continuously to a link:
// added one-way latency, seeded jitter, and a bandwidth cap — composable
// into asymmetric WAN profiles (two "regions" with fast intra-region and
// slow cross-region links, see WANProfile). *Events* fire once at an offset
// from Start: full bidirectional partitions with a timed heal, mid-stream
// connection resets (RST, not FIN), and half-open stalls where the link
// stays connected but stops moving bytes. Jitter draws come from a per-link
// PRNG seeded from (Schedule.Seed, from, to), so a logged seed reproduces
// the same draw sequence per link; event times are wall-clock offsets and
// therefore only as deterministic as the scheduler — the engine's whole
// claim is that this must not matter, and the digest-vs-twin gate is what
// checks it.
//
// The package deliberately knows nothing about the transport riding it: it
// proxies opaque byte streams, which is exactly what makes the injected
// resets and stalls honest (the handshake, frame codec, and reliable layer
// above all see real kernel-level failures, not simulated ones).
package netchaos

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Shape is the steady-state conditioning of one direction of a link.
type Shape struct {
	// Latency is added one-way delay per chunk.
	Latency time.Duration
	// Jitter adds a uniform extra delay in [0, Jitter) drawn from the
	// link's seeded PRNG.
	Jitter time.Duration
	// BytesPerSec caps throughput (0 = unlimited): a chunk of n bytes
	// occupies the link for n/BytesPerSec before its latency even starts,
	// exactly like a serialization delay on a narrow pipe.
	BytesPerSec int64
}

func (s Shape) zero() bool {
	return s.Latency == 0 && s.Jitter == 0 && s.BytesPerSec == 0
}

// LinkRule shapes one directed link. Forward conditions bytes flowing
// from -> to (the dialer's requests), Reverse the returning bytes on the
// same connections. Rules are matched first-wins after alias resolution.
type LinkRule struct {
	From, To int
	Forward  Shape
	Reverse  Shape
}

// Partition cuts every link whose (aliased) endpoints fall on opposite
// sides of the A/B split, in both directions, for the given duration. New
// connections are accepted and immediately reset (the dialer sees a
// connect-then-RST, like a host dropping off the network behind a live
// switch); existing connections are reset at partition onset.
type Partition struct {
	A, B []int
	For  time.Duration
}

// Reset kills every live connection on the directed link (from -> to) with
// an RST — SO_LINGER zero, so the peer sees ECONNRESET mid-stream, not a
// clean FIN.
type Reset struct {
	From, To int
}

// Stall half-opens the directed link: connections stay established but the
// proxy stops forwarding bytes for the duration. The sender's kernel
// buffers absorb what they can; a transport with a write deadline turns
// the stall into a bounded error, one without hangs — which is the point.
type Stall struct {
	From, To int
	For      time.Duration
}

// Event is one timed fault, fired At after Start. Exactly one of the
// pointers is set.
type Event struct {
	At        time.Duration
	Partition *Partition
	Reset     *Reset
	Stall     *Stall
}

// Schedule is a seeded description of everything the fault plane will do.
type Schedule struct {
	// Name labels the schedule in reports and failure messages.
	Name string
	// Seed feeds every per-link jitter PRNG.
	Seed int64
	// Rules shape links continuously (first match wins).
	Rules []LinkRule
	// Events are timed one-shot faults relative to Start.
	Events []Event
	// Alias maps a routing target onto another id before rule and
	// partition matching. The harness aliases the sequencer-leader
	// transport id onto worker 0 (its co-host), so WAN rules and
	// partitions written in terms of workers automatically cover the
	// leader links of the process that hosts it.
	Alias map[int]int
}

// String summarizes the schedule for failure reports.
func (s *Schedule) String() string {
	return fmt.Sprintf("%s(seed=%d, %d rules, %d events)", s.Name, s.Seed, len(s.Rules), len(s.Events))
}

// WANProfile builds the rule set for an asymmetric wide-area topology:
// regions lists worker ids per region; links inside a region get intra
// latency, links crossing regions get cross latency, both with the given
// jitter. The canonical geo-distributed profile from ROADMAP — e.g. two
// regions at 40ms cross / 5ms intra — is
// WANProfile([][]int{{0,1},{2}}, 5*time.Millisecond, 40*time.Millisecond, time.Millisecond).
func WANProfile(regions [][]int, intra, cross, jitter time.Duration) []LinkRule {
	regionOf := map[int]int{}
	var all []int
	for r, members := range regions {
		for _, id := range members {
			regionOf[id] = r
			all = append(all, id)
		}
	}
	var rules []LinkRule
	for _, a := range all {
		for _, b := range all {
			if a == b {
				continue
			}
			lat := intra
			if regionOf[a] != regionOf[b] {
				lat = cross
			}
			sh := Shape{Latency: lat, Jitter: jitter}
			rules = append(rules, LinkRule{From: a, To: b, Forward: sh, Reverse: sh})
		}
	}
	return rules
}

// LinkStats is one link's cumulative fault accounting.
type LinkStats struct {
	From, To       int
	Conns          int64 // connections accepted and proxied
	Resets         int64 // live connections killed with RST
	PartitionDrops int64 // dials rejected while partitioned
	BytesForward   int64
	BytesReverse   int64
}

// PlaneStats aggregates every link.
type PlaneStats struct {
	Links []LinkStats
}

// TotalResets sums injected resets (partition onsets included).
func (ps PlaneStats) TotalResets() int64 {
	var n int64
	for _, l := range ps.Links {
		n += l.Resets
	}
	return n
}

// TotalPartitionDrops sums dials rejected while a partition held.
func (ps PlaneStats) TotalPartitionDrops() int64 {
	var n int64
	for _, l := range ps.Links {
		n += l.PartitionDrops
	}
	return n
}

// linkID identifies one directed proxied link.
type linkID struct{ from, to int }

// Plane owns every per-link proxy of one cluster.
type Plane struct {
	sched *Schedule

	mu      sync.Mutex
	links   map[linkID]*link
	started bool
	closed  bool

	quit chan struct{}
	wg   sync.WaitGroup
}

// NewPlane builds an idle fault plane for the schedule. Route the links,
// boot the processes, then Start to arm the event timeline.
func NewPlane(sched *Schedule) *Plane {
	if sched == nil {
		sched = &Schedule{}
	}
	return &Plane{
		sched: sched,
		links: make(map[linkID]*link),
		quit:  make(chan struct{}),
	}
}

// resolve applies the schedule's alias map for rule/partition matching.
func (p *Plane) resolve(id int) int {
	if a, ok := p.sched.Alias[id]; ok {
		return a
	}
	return id
}

// shapesFor finds the first matching rule for the (aliased) link.
func (p *Plane) shapesFor(from, to int) (fwd, rev Shape) {
	rf, rt := p.resolve(from), p.resolve(to)
	for _, r := range p.sched.Rules {
		if r.From == rf && r.To == rt {
			return r.Forward, r.Reverse
		}
	}
	return Shape{}, Shape{}
}

// Route creates (or returns) the proxy for the directed link from -> to,
// fronting upstream, and returns the address the `from` process should dial
// instead of upstream.
func (p *Plane) Route(from, to int, upstream string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return "", fmt.Errorf("netchaos: plane is closed")
	}
	id := linkID{from, to}
	if l, ok := p.links[id]; ok {
		return l.ln.Addr().String(), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("netchaos: link %d->%d: %w", from, to, err)
	}
	fwd, rev := p.shapesFor(from, to)
	l := &link{
		p:        p,
		id:       id,
		ln:       ln,
		upstream: upstream,
		fwd:      fwd,
		rev:      rev,
		rng:      rand.New(rand.NewSource(p.sched.Seed ^ int64(from)<<20 ^ int64(to))),
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

// PartitionBetween cuts every link crossing the A/B split (after alias
// resolution), both directions, healing after d.
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
		f, t := p.resolve(id.from), p.resolve(id.to)
		if (inA[f] && inB[t]) || (inB[f] && inA[t]) {
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

// Stats snapshots every link's counters, ordered by (from, to).
func (p *Plane) Stats() PlaneStats {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for _, l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	sort.Slice(links, func(i, j int) bool {
		if links[i].id.from != links[j].id.from {
			return links[i].id.from < links[j].id.from
		}
		return links[i].id.to < links[j].id.to
	})
	var ps PlaneStats
	for _, l := range links {
		ps.Links = append(ps.Links, LinkStats{
			From:           l.id.from,
			To:             l.id.to,
			Conns:          l.conns64.Load(),
			Resets:         l.resets.Load(),
			PartitionDrops: l.partDrops.Load(),
			BytesForward:   l.bytesFwd.Load(),
			BytesReverse:   l.bytesRev.Load(),
		})
	}
	return ps
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

// link is one directed proxy: a listener, the shaping config, and the live
// connection pairs.
type link struct {
	p        *Plane
	id       linkID
	ln       net.Listener
	upstream string
	fwd, rev Shape

	rngMu sync.Mutex
	rng   *rand.Rand

	mu        sync.Mutex
	conns     map[*connPair]struct{}
	partUntil time.Time
	stallTill time.Time

	conns64   atomic.Int64
	resets    atomic.Int64
	partDrops atomic.Int64
	bytesFwd  atomic.Int64
	bytesRev  atomic.Int64
}

// connPair is one proxied connection: the accepted client half and the
// upstream half.
type connPair struct {
	cli, up net.Conn
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
			l.resets.Add(1)
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
			l.partDrops.Add(1)
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
		l.conns64.Add(1)
		l.p.wg.Add(2)
		go l.pump(cp, cli, up, l.fwd, &l.bytesFwd)
		go l.pump(cp, up, cli, l.rev, &l.bytesRev)
	}
}

// chunk is one shaped unit of proxied bytes with its delivery time.
type chunk struct {
	data []byte
	due  time.Time
}

// pump forwards src -> dst under the link's shaping: a reader stamps each
// chunk with its due time (serialization delay from the bandwidth cap,
// then latency + seeded jitter) and a writer releases chunks when due —
// pipelined, so added latency delays bytes without capping throughput,
// exactly like netem's delay queue. The writer also honors stalls.
func (l *link) pump(cp *connPair, src, dst net.Conn, sh Shape, bytes *atomic.Int64) {
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
	var nextFree time.Time
	for {
		n, err := src.Read(buf)
		if n > 0 {
			now := time.Now()
			due := now
			if sh.BytesPerSec > 0 {
				if nextFree.Before(now) {
					nextFree = now
				}
				nextFree = nextFree.Add(time.Duration(float64(n) / float64(sh.BytesPerSec) * float64(time.Second)))
				due = nextFree
			}
			due = due.Add(sh.Latency + l.jitter(sh.Jitter))
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
