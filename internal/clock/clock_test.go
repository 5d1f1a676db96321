package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealNowAdvances(t *testing.T) {
	c := Real{}
	a := c.Now()
	c.Sleep(time.Millisecond)
	if !c.Now().After(a) {
		t.Error("Real clock did not advance across Sleep")
	}
}

func TestManualNow(t *testing.T) {
	start := time.Unix(100, 0)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Errorf("Now = %v, want %v", m.Now(), start)
	}
	m.Advance(5 * time.Second)
	if want := start.Add(5 * time.Second); !m.Now().Equal(want) {
		t.Errorf("Now after Advance = %v, want %v", m.Now(), want)
	}
}

func TestManualSleepBlocksUntilAdvance(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Sleep(10 * time.Second)
		close(done)
	}()
	// Not enough progress: sleeper must still block. (The sleeper may not
	// have called Sleep yet, in which case its deadline is even later.)
	m.Advance(5 * time.Second)
	select {
	case <-done:
		t.Fatal("Sleep returned before clock reached deadline")
	case <-time.After(10 * time.Millisecond):
	}
	// Advance far past any possible deadline (at most 5s start + 10s).
	m.Advance(30 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep did not return after clock passed deadline")
	}
	wg.Wait()
}

func TestManualSleepZeroReturnsImmediately(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	doneZero := make(chan struct{})
	go func() {
		m.Sleep(0)
		m.Sleep(-time.Second)
		close(doneZero)
	}()
	select {
	case <-doneZero:
	case <-time.After(time.Second):
		t.Fatal("Sleep(0) blocked")
	}
}

func TestManualMultipleSleepers(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Sleep(time.Duration(i+1) * time.Second)
		}(i)
	}
	// Give sleepers a moment to park, then release them all.
	time.Sleep(10 * time.Millisecond)
	m.Advance(time.Duration(n+1) * time.Second)
	doneAll := make(chan struct{})
	go func() { wg.Wait(); close(doneAll) }()
	select {
	case <-doneAll:
	case <-time.After(time.Second):
		t.Fatal("not all sleepers woke after Advance")
	}
}

// TestManualSleepUntilIsAbsolute: a waiter that worked out its deadline
// before the clock moved must still wake at that deadline. Sleep cannot
// promise it — it measures from wherever the clock stands when it is called
// — which is why deadline waits go through SleepUntil.
func TestManualSleepUntilIsAbsolute(t *testing.T) {
	start := time.Unix(0, 0)
	m := NewManual(start)
	deadline := start.Add(500 * time.Microsecond)
	m.Advance(499 * time.Microsecond) // lands between "compute" and "wait"
	done := make(chan struct{})
	go func() {
		m.SleepUntil(deadline)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("SleepUntil returned before the clock reached the deadline")
	case <-time.After(10 * time.Millisecond):
	}
	m.Advance(2 * time.Microsecond)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("SleepUntil measured from the advanced clock, not to the absolute deadline")
	}
	m.SleepUntil(start) // already past: returns at once
}
