package chaos

import (
	"math"
	"testing"
	"time"

	"hermes/internal/leaktest"
	"hermes/internal/network"
	"hermes/internal/tx"
)

func testNodes(n int) []tx.NodeID {
	out := make([]tx.NodeID, n)
	for i := range out {
		out[i] = tx.NodeID(i)
	}
	return out
}

// conditioned builds an in-process transport over n nodes whose links
// follow sched, and the schedule's model for its fault accounting.
func conditioned(t *testing.T, n int, sched Schedule) (*network.ChanTransport, *Model) {
	t.Helper()
	m, err := NewModel(sched)
	if err != nil {
		t.Fatal(err)
	}
	return network.NewChanTransport(testNodes(n), m.Link), m
}

// faultySchedule is a small-magnitude schedule exercising every fault
// class, fast enough for unit tests.
func faultySchedule(seed int64) Schedule {
	return Schedule{
		Name: "all-faults", Seed: seed,
		Shape:     Shape{Jitter: 50 * time.Microsecond, BytesPerSec: 32 << 20},
		SpikeProb: 0.1, SpikeDelay: 300 * time.Microsecond,
		OutageProb: 0.05, OutageDur: 500 * time.Microsecond,
	}
}

// TestFIFOPreservedUnderFaults: the core contract — whatever the schedule
// does to timing, per-link order must survive.
func TestFIFOPreservedUnderFaults(t *testing.T) {
	tr, m := conditioned(t, 2, faultySchedule(42))
	defer tr.Close()
	const n = 300
	for i := 0; i < n; i++ {
		if err := tr.Send(network.Message{From: 0, To: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-tr.Recv(1):
			if m.Seq != uint64(i) {
				t.Fatalf("out of order under faults: got %d, want %d", m.Seq, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never delivered", i)
		}
	}
	if msgs, delay := m.Faults(); msgs == 0 || delay == 0 {
		t.Fatalf("schedule injected nothing: %d msgs, %v delay", msgs, delay)
	}
}

// TestScheduleReproducible: the same seed must inject the identical total
// delay over the identical message sequence — the property that makes a
// logged seed reproduce a failing run.
func TestScheduleReproducible(t *testing.T) {
	run := func() time.Duration {
		tr, m := conditioned(t, 3, faultySchedule(7))
		defer tr.Close()
		const n = 150
		for i := 0; i < n; i++ {
			to := tx.NodeID(1 + i%2)
			if err := tr.Send(network.Message{From: 0, To: to, Seq: uint64(i), Payload: make([]byte, i%97)}); err != nil {
				t.Fatal(err)
			}
		}
		got := 0
		for got < n {
			select {
			case <-tr.Recv(1):
				got++
			case <-tr.Recv(2):
				got++
			case <-time.After(5 * time.Second):
				t.Fatalf("stalled after %d deliveries", got)
			}
		}
		_, delay := m.Faults()
		return delay
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed injected different delay: %v vs %v", a, b)
	}
}

// TestWrapAppliesLinkShapes: the link model delays each link by its Shape
// — the schedule-wide default, or the first matching Links override.
func TestWrapAppliesLinkShapes(t *testing.T) {
	tr, m := conditioned(t, 3, Schedule{
		Name: "shapes", Seed: 1,
		Shape: Shape{Latency: time.Millisecond},
		Links: []LinkShape{{From: 0, To: 1, Shape: Shape{Latency: 3 * time.Millisecond}}},
	})
	defer tr.Close()
	for _, to := range []tx.NodeID{1, 2} {
		if err := tr.Send(network.Message{From: 0, To: to}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-tr.Recv(to):
		case <-time.After(5 * time.Second):
			t.Fatalf("message to %d never delivered", to)
		}
	}
	if msgs, delay := m.Faults(); msgs != 2 || delay != 4*time.Millisecond {
		t.Fatalf("injected %d delays totalling %v, want 2 totalling 4ms (3ms override + 1ms default)", msgs, delay)
	}
}

// TestBurstArrivesInOneLatency: a Shape's latency delays each message from
// its own send, as on the socket plane, so a burst of 20 messages over a
// 5ms link arrives within 2 × 5ms — not one message after another, 20 ×
// 5ms in all. The best of up to three bursts counts: a loaded host can
// stall any one burst on the wall clock, but no stall makes serial delays
// look pipelined.
func TestBurstArrivesInOneLatency(t *testing.T) {
	const latency, n = 5 * time.Millisecond, 20
	tr, _ := conditioned(t, 2, Schedule{Name: "burst", Seed: 1, Shape: Shape{Latency: latency}})
	defer tr.Close()
	best := time.Duration(math.MaxInt64)
	for burst := 0; burst < 3 && best > 2*latency; burst++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := tr.Send(network.Message{From: 0, To: 1, Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			select {
			case m := <-tr.Recv(1):
				if m.Seq != uint64(i) {
					t.Fatalf("out of order: got %d, want %d", m.Seq, i)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("message %d never delivered", i)
			}
		}
		best = min(best, time.Since(start))
	}
	if best > 2*latency {
		t.Fatalf("a burst of %d over a %v link took %v at best, want at most %v", n, latency, best, 2*latency)
	}
}

// TestLinkDueTimesMatchSocketPump: for one Shape with a bandwidth cap, the
// in-process link model and the socket plane's pump stamp a burst with the
// same due times, jitter draws included, and a message waits for the link
// to serialize every byte sent before it.
func TestLinkDueTimesMatchSocketPump(t *testing.T) {
	sched := Schedule{Name: "narrow", Seed: 5, Shape: Shape{
		Latency: 2 * time.Millisecond, Jitter: 300 * time.Microsecond, BytesPerSec: 1 << 20,
	}}
	m, err := NewModel(sched)
	if err != nil {
		t.Fatal(err)
	}
	fate := m.Link(0, 1)
	pump := &link{sh: sched.shapeOf(0, 1), rng: linkRand(sched.Seed, 0, 1)} // as Plane.Route builds it
	var free time.Time
	start := time.Unix(1_000_000, 0)
	var occupied time.Duration
	for i, n := range []int{4096, 100, 65536, 1, 32768, 4096, 512} {
		// 100µs apart: faster than the link drains them.
		sent := start.Add(time.Duration(i) * 100 * time.Microsecond)
		due, copies := fate(sent, n)
		if want := pump.stamp(sent, n, &free); !due.Equal(want) || copies != 1 {
			t.Fatalf("message %d: in process due %v (%d copies), socket pump due %v", i, due.Sub(start), copies, want.Sub(start))
		}
		occupied += time.Duration(float64(n) / float64(sched.Shape.BytesPerSec) * float64(time.Second))
		if floor := start.Add(occupied + sched.Shape.Latency); due.Before(floor) {
			t.Fatalf("message %d due %v, before the link serialized the burst so far and carried it (%v)",
				i, due.Sub(start), floor.Sub(start))
		}
	}
}

// TestBaselinePassThrough: a zero schedule must not perturb or count
// anything, and local sends always bypass injection.
func TestBaselinePassThrough(t *testing.T) {
	tr, m := conditioned(t, 2, Schedule{Name: "baseline", Seed: 1})
	defer tr.Close()
	if err := tr.Send(network.Message{From: 0, To: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(network.Message{From: 1, To: 1, Payload: []byte("local")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-tr.Recv(1):
		case <-time.After(time.Second):
			t.Fatal("message not delivered")
		}
	}
	if msgs, _ := m.Faults(); msgs != 0 {
		t.Fatalf("baseline schedule injected %d faults", msgs)
	}
}

// TestCloseSafety: close with messages in flight must not hang or panic,
// send-after-close errors, and double close is a no-op.
func TestCloseSafety(t *testing.T) {
	sched := Schedule{Name: "slow", Seed: 3, OutageProb: 1, OutageDur: time.Hour}
	tr, _ := conditioned(t, 2, sched)
	for i := 0; i < 10; i++ {
		if err := tr.Send(network.Message{From: 0, To: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		tr.Close()
		tr.Close() // double close safe
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind a partition")
	}
	if err := tr.Send(network.Message{From: 0, To: 1}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// TestCloseWhileDelayingLeaksNothing: a link waiting out a message's
// injected delay stops waiting when the transport closes; nothing it
// started outlives Close.
func TestCloseWhileDelayingLeaksNothing(t *testing.T) {
	defer leaktest.Check(t)()
	tr, m := conditioned(t, 2, Schedule{Name: "slow", Seed: 3, Shape: Shape{Latency: time.Hour}})
	if err := tr.Send(network.Message{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	for {
		if msgs, _ := m.Faults(); msgs > 0 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	tr.Close()
}

// TestSchedulesDistinct: the standard matrix must contain a fault-free
// baseline plus genuinely distinct faulty schedules.
func TestSchedulesDistinct(t *testing.T) {
	scheds := Schedules(11)
	if len(scheds) < 5 {
		t.Fatalf("matrix too small: %d", len(scheds))
	}
	if scheds[0].faulty() {
		t.Fatal("first schedule should be the fault-free baseline")
	}
	names := map[string]bool{}
	for _, s := range scheds[1:] {
		if !s.faulty() {
			t.Fatalf("schedule %v injects nothing", s)
		}
		if names[s.Name] {
			t.Fatalf("duplicate schedule name %q", s.Name)
		}
		names[s.Name] = true
	}
}
