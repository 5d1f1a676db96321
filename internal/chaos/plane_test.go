package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hermes/internal/leaktest"
)

// echoServer accepts connections and echoes bytes until closed.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		<-done
	}
}

// newPlane builds a plane for a schedule the socket seam accepts.
func newPlane(t *testing.T, s Schedule) *Plane {
	t.Helper()
	p, err := NewPlane(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func roundTrip(t *testing.T, conn net.Conn, msg string) error {
	t.Helper()
	if _, err := conn.Write([]byte(msg)); err != nil {
		return err
	}
	buf := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return err
	}
	if string(buf) != msg {
		t.Fatalf("echo mismatch: got %q want %q", buf, msg)
	}
	return nil
}

func TestPlaneProxiesBytes(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	p := newPlane(t, Schedule{Name: "plain", Seed: 1})
	defer p.Close()
	proxied, err := p.Route(0, 1, addr)
	if err != nil {
		t.Fatal(err)
	}
	// Route is idempotent per link.
	again, err := p.Route(0, 1, addr)
	if err != nil || again != proxied {
		t.Fatalf("re-Route: got %q,%v want %q", again, err, proxied)
	}
	conn, err := net.Dial("tcp", proxied)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := roundTrip(t, conn, "hello through the fault plane"); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Conns != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// A pump counts a chunk after writing it, so the echo can be back in
	// our hands a moment before either counter moves.
	moved := func() bool { return st.BytesForward > 0 && st.BytesReverse > 0 }
	for deadline := time.Now().Add(2 * time.Second); !moved() && time.Now().Before(deadline); st = p.Stats() {
		time.Sleep(time.Millisecond)
	}
	if !moved() {
		t.Fatalf("byte counters not moving: %+v", st)
	}
}

func TestPlaneAddsLatency(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	const oneWay = 30 * time.Millisecond
	p := newPlane(t, Schedule{
		Name:  "latency",
		Seed:  2,
		Links: []LinkShape{{From: 0, To: 1, Shape: Shape{Latency: oneWay}}},
	})
	defer p.Close()
	proxied, err := p.Route(0, 1, addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", proxied)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if err := roundTrip(t, conn, "ping"); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 2*oneWay {
		t.Fatalf("round trip %v did not pay 2x one-way latency %v", rtt, oneWay)
	}
}

func TestPlanePartitionAndHeal(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	p := newPlane(t, Schedule{Name: "partition", Seed: 3})
	defer p.Close()
	proxied, err := p.Route(0, 1, addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", proxied)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := roundTrip(t, conn, "before"); err != nil {
		t.Fatal(err)
	}

	const hold = 300 * time.Millisecond
	p.PartitionBetween([]int{0}, []int{1}, hold)

	// The established connection was reset at partition onset.
	if err := roundTrip(t, conn, "during"); err == nil {
		t.Fatal("round trip succeeded across a partition")
	}
	// New dials during the partition get reset immediately.
	c2, err := net.Dial("tcp", proxied)
	if err == nil {
		c2.SetReadDeadline(time.Now().Add(2 * time.Second))
		one := make([]byte, 1)
		if _, rerr := c2.Read(one); rerr == nil {
			t.Fatal("read succeeded on a partitioned link")
		}
		c2.Close()
	}
	st := p.Stats()
	if st.Resets == 0 {
		t.Fatalf("partition onset did not count a reset: %+v", st)
	}

	// Heal: wait out the hold, then the link must pass bytes again.
	time.Sleep(hold + 50*time.Millisecond)
	healed, err := net.Dial("tcp", proxied)
	if err != nil {
		t.Fatal(err)
	}
	defer healed.Close()
	if err := roundTrip(t, healed, "after heal"); err != nil {
		t.Fatalf("link did not heal: %v", err)
	}
	if p.Stats().PartitionDrops == 0 {
		t.Fatalf("no partition drops counted: %+v", p.Stats())
	}
}

func TestPlaneMidStreamReset(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	p := newPlane(t, Schedule{Name: "reset", Seed: 4})
	defer p.Close()
	proxied, err := p.Route(0, 1, addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", proxied)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := roundTrip(t, conn, "alive"); err != nil {
		t.Fatal(err)
	}
	p.ResetLink(0, 1)
	// The RST may take a beat to surface; keep poking until the
	// connection reports dead.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if err := roundTrip(t, conn, "poke"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection survived an injected reset")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := p.Stats().Resets; got == 0 {
		t.Fatalf("reset not counted: %+v", p.Stats())
	}
	// The link itself is still routable.
	c2, err := net.Dial("tcp", proxied)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := roundTrip(t, c2, "reborn"); err != nil {
		t.Fatal(err)
	}
}

func TestPlaneStallHalfOpen(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	p := newPlane(t, Schedule{Name: "stall", Seed: 5})
	defer p.Close()
	proxied, err := p.Route(0, 1, addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", proxied)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := roundTrip(t, conn, "pre"); err != nil {
		t.Fatal(err)
	}
	const hold = 250 * time.Millisecond
	p.StallLink(0, 1, hold)
	start := time.Now()
	// The connection stays up — no error — but the echo can't come back
	// until the stall horizon passes.
	if err := roundTrip(t, conn, "stalled"); err != nil {
		t.Fatalf("stall should delay, not kill: %v", err)
	}
	if waited := time.Since(start); waited < hold-20*time.Millisecond {
		t.Fatalf("echo returned after %v, inside the %v stall", waited, hold)
	}
}

func TestPlaneJitterSeeded(t *testing.T) {
	// Two planes with the same seed must draw the same jitter sequence for
	// the same link; a different seed must diverge.
	draw := func(seed int64) []time.Duration {
		p := newPlane(t, Schedule{Seed: seed})
		defer p.Close()
		if _, err := p.Route(1, 2, "127.0.0.1:1"); err != nil {
			t.Fatal(err)
		}
		l := p.link(1, 2)
		var ds []time.Duration
		for i := 0; i < 16; i++ {
			ds = append(ds, l.jitter(time.Millisecond))
		}
		return ds
	}
	a, b, c := draw(42), draw(42), draw(43)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestPlaneEventTimeline(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	p := newPlane(t, Schedule{
		Name: "timeline",
		Seed: 6,
		Events: []Event{
			{At: 50 * time.Millisecond, Reset: &Reset{From: 0, To: 1}},
		},
	})
	defer p.Close()
	proxied, err := p.Route(0, 1, addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", proxied)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := roundTrip(t, conn, "pre-event"); err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Start() // idempotent
	deadline := time.Now().Add(3 * time.Second)
	for p.Stats().Resets == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timeline event never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPlaneBandwidthCap(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	// 64 KiB at 256 KiB/s must take ~250ms to arrive (and as long again
	// to echo back: the shape conditions both directions).
	p := newPlane(t, Schedule{
		Name:  "throttle",
		Seed:  8,
		Links: []LinkShape{{From: 0, To: 1, Shape: Shape{BytesPerSec: 256 << 10}}},
	})
	defer p.Close()
	proxied, err := p.Route(0, 1, addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", proxied)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := bytes.Repeat([]byte("x"), 64<<10)
	start := time.Now()
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 150*time.Millisecond {
		t.Fatalf("64KiB crossed a 256KiB/s link in %v — throttle not applied", took)
	}
}

func TestWANProfileRules(t *testing.T) {
	links := WANProfile([][]int{{0, 1}, {2}}, 5*time.Millisecond, 40*time.Millisecond, time.Millisecond)
	// 3 workers -> 6 directed links.
	if len(links) != 6 {
		t.Fatalf("got %d links, want 6", len(links))
	}
	lat := func(from, to int) time.Duration {
		for _, l := range links {
			if l.From == from && l.To == to {
				return l.Shape.Latency
			}
		}
		t.Fatalf("no link %d->%d", from, to)
		return 0
	}
	if lat(0, 1) != 5*time.Millisecond {
		t.Fatalf("intra-region latency %v, want 5ms", lat(0, 1))
	}
	if lat(0, 2) != 40*time.Millisecond || lat(2, 1) != 40*time.Millisecond {
		t.Fatalf("cross-region latency %v/%v, want 40ms", lat(0, 2), lat(2, 1))
	}
}

func TestPlaneCloseWhileTrafficFlows(t *testing.T) {
	defer leaktest.Check(t)()
	addr, stop := echoServer(t)
	defer stop()
	p := newPlane(t, Schedule{
		Name:  "close-under-load",
		Seed:  9,
		Shape: Shape{Latency: 20 * time.Millisecond},
	})
	proxied, err := p.Route(0, 1, addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", proxied)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Queue bytes that are still in flight (inside the latency window)
	// when Close runs — pumps must not leak or deadlock.
	conn.Write(bytes.Repeat([]byte("y"), 16<<10))
	p.Close()
	p.Close() // idempotent
	if _, err := p.Route(0, 1, addr); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Route after Close: err=%v, want closed error", err)
	}
}

func TestScheduleString(t *testing.T) {
	s := Schedule{Name: "wan", Seed: 11, Links: make([]LinkShape, 2), Events: make([]Event, 3)}
	got := s.String()
	for _, want := range []string{"wan", "seed=11"} {
		if !strings.Contains(got, want) {
			t.Fatalf("String() = %q missing %q", got, want)
		}
	}
}

func TestRouteBadUpstreamResetsDialer(t *testing.T) {
	defer leaktest.Check(t)()
	p := newPlane(t, Schedule{Name: "bad-upstream", Seed: 12})
	defer p.Close()
	// Upstream nobody listens on: proxy accepts then resets.
	proxied, err := p.Route(0, 1, "127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", proxied)
	if err != nil {
		return // immediate refusal is also acceptable
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil || errors.Is(err, io.EOF) && false {
		t.Fatal("read succeeded through a dead upstream")
	}
}
