package chaos

import (
	"testing"
	"time"

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

// faultySchedule is a small-magnitude schedule exercising every fault
// class, fast enough for unit tests.
func faultySchedule(seed int64) Schedule {
	return Schedule{
		Name: "all-faults", Seed: seed,
		Jitter:    50 * time.Microsecond,
		SpikeProb: 0.1, SpikeDelay: 300 * time.Microsecond,
		PartitionProb: 0.05, PartitionDur: 500 * time.Microsecond,
		BytesPerSecond: 32 << 20,
	}
}

// TestFIFOPreservedUnderFaults: the core contract — whatever the schedule
// does to timing, per-link order must survive.
func TestFIFOPreservedUnderFaults(t *testing.T) {
	inner := network.NewChanTransport(testNodes(2), nil)
	tr := Wrap(inner, faultySchedule(42), nil)
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
	if msgs, delay := tr.Faults(); msgs == 0 || delay == 0 {
		t.Fatalf("schedule injected nothing: %d msgs, %v delay", msgs, delay)
	}
}

// TestScheduleReproducible: the same seed must inject the identical total
// delay over the identical message sequence — the property that makes a
// logged seed reproduce a failing run.
func TestScheduleReproducible(t *testing.T) {
	run := func() time.Duration {
		inner := network.NewChanTransport(testNodes(3), nil)
		tr := Wrap(inner, faultySchedule(7), nil)
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
		_, delay := tr.Faults()
		return delay
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed injected different delay: %v vs %v", a, b)
	}
}

// TestBaselinePassThrough: a zero schedule must not perturb or count
// anything, and local sends always bypass injection.
func TestBaselinePassThrough(t *testing.T) {
	inner := network.NewChanTransport(testNodes(2), nil)
	tr := Wrap(inner, Schedule{Name: "baseline", Seed: 1}, nil)
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
	if msgs, _ := tr.Faults(); msgs != 0 {
		t.Fatalf("baseline schedule injected %d faults", msgs)
	}
}

// TestCloseSafety: close with messages in flight must not hang or panic,
// send-after-close errors, and double close is a no-op.
func TestCloseSafety(t *testing.T) {
	inner := network.NewChanTransport(testNodes(2), nil)
	sched := Schedule{Name: "slow", Seed: 3, PartitionProb: 1, PartitionDur: time.Hour}
	tr := Wrap(inner, sched, nil)
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
