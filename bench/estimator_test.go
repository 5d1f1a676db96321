package main

import (
	"math"
	"testing"
	"time"
)

// fakeSystem is a closed-loop system on a fake clock: it keeps window
// transactions in flight and completes rate of them per second, until the
// wedgeAt-th completion, after which nothing completes any more.
type fakeSystem struct {
	rate    float64
	window  int64
	wedgeAt int64 // 0 = never
}

func (f fakeSystem) at(t time.Duration) sample {
	done := int64(f.rate * t.Seconds())
	if f.wedgeAt > 0 && done > f.wedgeAt {
		done = f.wedgeAt
	}
	return sample{
		submitted: done + f.window,
		completed: done,
		cpu:       time.Duration(done) * 40 * time.Microsecond,
	}
}

// drive feeds est one incarnation of sys sampled every 20ms, starting at
// clock time from, for at most dur. It returns when the estimator declares
// a stall or the time is up, with the incarnation's last sample time.
func drive(est *estimator, sys fakeSystem, from, dur time.Duration) (stalled bool, end time.Duration) {
	first := sys.at(0)
	first.at = from
	first.submitted = 0
	est.begin(first)
	for t := 20 * time.Millisecond; t <= dur; t += 20 * time.Millisecond {
		s := sys.at(t)
		s.at = from + t
		if est.observe(s) {
			return true, s.at
		}
	}
	return false, from + dur
}

func near(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Errorf("%s = %v, want %v ±%.0f%%", what, got, want, 100*tol)
	}
}

func TestEstimatorSteadyRun(t *testing.T) {
	est := newEstimator(250*time.Millisecond, 3*time.Second)
	sys := fakeSystem{rate: 4000, window: 50}
	stalled, _ := drive(est, sys, 0, 5*time.Second)
	if stalled {
		t.Fatal("steady system declared stalled")
	}
	est.end(false)
	e := est.estimate()
	// A 20ms sampler closes a 250ms window at 260ms: 19 windows in 5s,
	// the first of which is warm-up.
	if e.windows != 18 {
		t.Errorf("kept %d windows, want 18", e.windows)
	}
	near(t, "throughput", e.throughputTPS, 4000, 0.01)
	// Little: 50 in flight at 4000/s is 12.5ms each.
	near(t, "latency", e.latMeanMs, 12.5, 0.02)
	near(t, "cpu", e.cpuUsPerTxn, 40, 0.01)
	if est.unanswered != 50 || est.attempted != 20050 {
		t.Errorf("attempted %d unanswered %d, want 20050 and 50 (the window still in flight)", est.attempted, est.unanswered)
	}
}

func TestEstimatorStopwatchLatencyWins(t *testing.T) {
	est := newEstimator(250*time.Millisecond, 3*time.Second)
	est.begin(sample{})
	for i := 1; i <= 100; i++ {
		n := int64(100 * i)
		est.observe(sample{
			at: time.Duration(i) * 20 * time.Millisecond, submitted: n + 50, completed: n,
			latSum: time.Duration(n) * 2 * time.Millisecond,
		})
	}
	est.end(false)
	near(t, "latency", est.estimate().latMeanMs, 2, 0.001)
}

func TestEstimatorWedgeAndRestart(t *testing.T) {
	est := newEstimator(250*time.Millisecond, 3*time.Second)
	// First incarnation wedges after 2s of work.
	wedged := fakeSystem{rate: 4000, window: 50, wedgeAt: 8000}
	stalled, end := drive(est, wedged, 0, time.Minute)
	if !stalled {
		t.Fatal("wedged system not declared stalled")
	}
	if want := 5 * time.Second; end < want || end > want+40*time.Millisecond {
		t.Errorf("stall declared at %v, want %v after the last completion at 2s", end, want)
	}
	est.end(true)
	if est.stalls != 1 || est.unanswered != 50 || est.attempted != 8050 {
		t.Errorf("stalls %d unanswered %d attempted %d, want 1, 50, 8050", est.stalls, est.unanswered, est.attempted)
	}
	// Windows wholly inside the stall are stall time, not throughput.
	if got := est.stallTime; got < 2750*time.Millisecond || got > 3*time.Second {
		t.Errorf("stall time %v, want the ~3s without a completion", got)
	}
	// A fresh incarnation finishes the job; its first window is warm-up.
	stalled, _ = drive(est, fakeSystem{rate: 4000, window: 50}, end+600*time.Millisecond, 2*time.Second)
	if stalled {
		t.Fatal("healthy restart declared stalled")
	}
	est.end(false)
	e := est.estimate()
	if e.incarnations != 2 {
		t.Fatalf("%d incarnations with kept windows, want 2", e.incarnations)
	}
	// The first incarnation has 7 whole 260ms windows before the one the
	// stall began in (dropped); the second has 7 and a fragment long
	// enough to keep. Each loses its warm-up window.
	if e.windows != 6+7 {
		t.Errorf("kept %d windows, want 13", e.windows)
	}
	near(t, "throughput through the stall", e.throughputTPS, 4000, 0.01)
	near(t, "latency through the stall", e.latMeanMs, 12.5, 0.02)
}

func TestEstimatorDropsTheDrain(t *testing.T) {
	est := newEstimator(250*time.Millisecond, 3*time.Second)
	est.begin(sample{})
	// 1s at 4000/s, then the client stops and the pipeline idles 300ms.
	for i := 1; i <= 65; i++ {
		at := time.Duration(i) * 20 * time.Millisecond
		n := min(int64(4000*at.Seconds()), 4000)
		est.observe(sample{at: at, submitted: 4000, completed: n, tail: at >= time.Second})
	}
	est.end(false)
	e := est.estimate()
	if e.windows != 2 {
		t.Errorf("kept %d windows, want 2 (warm-up and the window reaching the tail dropped)", e.windows)
	}
	near(t, "throughput", e.throughputTPS, 4000, 0.01)
}

func TestEstimatorMedianOverIncarnations(t *testing.T) {
	est := newEstimator(250*time.Millisecond, 3*time.Second)
	var from time.Duration
	for _, rate := range []float64{4000, 2500, 4100} { // one slow incarnation
		_, end := drive(est, fakeSystem{rate: rate, window: 50}, from, 2*time.Second)
		est.end(false)
		from = end + time.Second
	}
	near(t, "throughput", est.estimate().throughputTPS, 4000, 0.01)
}
