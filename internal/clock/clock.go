// Package clock abstracts time so that the engine, metrics windows, and
// workload pacing can run against either the wall clock (benchmarks,
// examples) or a manually advanced clock (deterministic unit tests).
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal time source the rest of the system depends on.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	// SleepUntil blocks until the clock reads t or later. A caller waiting
	// for a deadline must use it rather than Sleep(t.Sub(Now())): the clock
	// can move between the two calls, and Sleep would then overshoot t by
	// however far it moved.
	SleepUntil(t time.Time)
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// SleepUntil implements Clock.
func (Real) SleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// Manual is a Clock that only moves when Advance is called. Sleep blocks
// until the clock has been advanced past the deadline, which lets tests
// drive time-dependent code deterministically from a single goroutine.
type Manual struct {
	mu   sync.Mutex
	cond *sync.Cond
	now  time.Time
}

// NewManual returns a Manual clock starting at start.
func NewManual(start time.Time) *Manual {
	m := &Manual{now: start}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep implements Clock. It returns once Advance has moved the clock at
// least d past the time Sleep was called. Sleep(0) and negative durations
// return immediately.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	m.waitLocked(m.now.Add(d))
	m.mu.Unlock()
}

// SleepUntil implements Clock. It returns once Advance has moved the clock
// to t or past it, wherever the clock stood when it was called.
func (m *Manual) SleepUntil(t time.Time) {
	m.mu.Lock()
	m.waitLocked(t)
	m.mu.Unlock()
}

func (m *Manual) waitLocked(deadline time.Time) {
	for m.now.Before(deadline) {
		m.cond.Wait()
	}
}

// Advance moves the clock forward by d and wakes all sleepers.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	m.cond.Broadcast()
	m.mu.Unlock()
}
