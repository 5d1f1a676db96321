package harness

import "time"

// stopClock is a real-time clock whose sleepers can all be released at
// once. The standalone sequencer leader in a cluster process runs with an
// effectively infinite flush interval (sealing is size-only, for
// determinism), so its flush-loop sleeper would outlive the process's
// Close by up to that interval under the real clock; Stop releases it
// immediately, which is what lets NodeServer.Close pass leaktest.
type stopClock struct {
	quit chan struct{}
}

func newStopClock() *stopClock {
	return &stopClock{quit: make(chan struct{})}
}

// Now implements clock.Clock.
func (c *stopClock) Now() time.Time { return time.Now() }

// Sleep implements clock.Clock: a real sleep that also returns (early)
// when the clock is stopped.
func (c *stopClock) Sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.quit:
	}
}

// SleepUntil implements clock.Clock.
func (c *stopClock) SleepUntil(t time.Time) { c.Sleep(time.Until(t)) }

// Stop releases every current and future sleeper immediately.
func (c *stopClock) Stop() {
	select {
	case <-c.quit:
	default:
		close(c.quit)
	}
}
