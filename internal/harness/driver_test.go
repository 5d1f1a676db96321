package harness

import (
	"sync"
	"testing"
	"time"

	"hermes/internal/sequencer"
	"hermes/internal/tx"
)

// windowStub is a submit target and leader whose completions the test
// releases by hand. The leader reports every submission as pending until
// Flush seals them.
type windowStub struct {
	mu          sync.Mutex
	window      int
	dones       []chan struct{}
	released    int // completions closed, oldest first
	flushed     int
	maxInFlight int
	overWindow  int // submissions that arrived with window already outstanding
	arrived     chan int
}

func (s *windowStub) submit(tx.Procedure) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan struct{})
	s.dones = append(s.dones, ch)
	inFlight := len(s.dones) - s.released
	if inFlight > s.window {
		s.overWindow++
	}
	if inFlight > s.maxInFlight {
		s.maxInFlight = inFlight
	}
	s.arrived <- len(s.dones) - 1
	return ch, nil
}

// release completes the oldest outstanding submission.
func (s *windowStub) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	close(s.dones[s.released])
	s.released++
}

func (s *windowStub) Stats() sequencer.LeaderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sequencer.LeaderStats{Txns: int64(s.flushed), Pending: len(s.dones) - s.flushed}
}

func (s *windowStub) Flush() {
	s.mu.Lock()
	s.flushed = len(s.dones)
	s.mu.Unlock()
}

// TestDriverWindowBoundsInFlight pins the driver's only admission control:
// at most Window submissions are outstanding, submission i+Window waits
// until a completion returns, and the run finishes once every completion
// has.
func TestDriverWindowBoundsInFlight(t *testing.T) {
	const window, total = 4, 12
	stub := &windowStub{window: window, arrived: make(chan int, total)}
	procs := make([]*tx.CounterProc, total)
	for i := range procs {
		procs[i] = &tx.CounterProc{}
	}
	d := newDriver()
	if !d.start(total) {
		t.Fatal("driver refused to start")
	}
	type outcome struct {
		res *RunResult
		err error
	}
	out := make(chan outcome, 1)
	go func() {
		res, err := d.run(stub.submit, procs, window, stub, 30*time.Second)
		out <- outcome{res, err}
	}()
	t.Cleanup(d.stop)

	next := func(want int) {
		t.Helper()
		select {
		case got := <-stub.arrived:
			if got != want {
				t.Fatalf("submission %d arrived, want %d", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("submission %d never arrived", want)
		}
	}
	quiet := func() {
		t.Helper()
		select {
		case got := <-stub.arrived:
			t.Fatalf("submission %d arrived with %d outstanding and no completion returned", got, window)
		case <-time.After(50 * time.Millisecond):
		}
	}

	for i := 0; i < window; i++ {
		next(i)
	}
	for i := window; i < total; i++ {
		quiet()
		stub.release()
		next(i)
	}
	for i := 0; i < window; i++ {
		stub.release()
	}

	select {
	case o := <-out:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Committed != total {
			t.Fatalf("committed %d of %d", o.res.Committed, total)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not finish after every completion returned: %+v", d.status())
	}
	if st := d.status(); !st.Done || st.Completed != total {
		t.Fatalf("status after the run = %+v", st)
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if stub.overWindow != 0 || stub.maxInFlight != window {
		t.Fatalf("in flight peaked at %d with %d submissions over the window, want a peak of exactly %d",
			stub.maxInFlight, stub.overWindow, window)
	}
	if stub.flushed != total {
		t.Fatalf("leader flushed %d of %d", stub.flushed, total)
	}
}
