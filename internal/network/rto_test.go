package network

import (
	"testing"
	"time"
)

// TestRTO walks the estimator through its whole contract: the initial
// timeout, the first sample (SRTT = R, RTTVAR = R/2), convergence on a
// steady round trip, Karn's rule, doubling per unanswered round, and the
// floor and ceiling.
func TestRTO(t *testing.T) {
	const ms = time.Millisecond
	e := NewRTO(50*ms, 2*ms, time.Second)
	if got := e.Timeout(); got != 50*ms {
		t.Fatalf("initial timeout = %v, want 50ms", got)
	}

	// First sample: SRTT = 20ms, RTTVAR = 10ms, timeout = 20 + 4·10.
	e.Sample(20*ms, false)
	if got := e.Timeout(); got != 60*ms {
		t.Fatalf("after the first 20ms sample: timeout = %v, want 60ms", got)
	}

	// A steady 20ms round trip: RTTVAR decays towards 0, so the timeout
	// converges on SRTT from above.
	for i := 0; i < 100; i++ {
		e.Sample(20*ms, false)
	}
	if got := e.Timeout(); got < 20*ms || got > 21*ms {
		t.Fatalf("after 100 steady 20ms samples: timeout = %v, want within [20ms, 21ms]", got)
	}

	// Karn's rule: a round trip of a resent message says nothing — not even
	// a huge one moves the estimate.
	before := e.Timeout()
	e.Sample(900*ms, true)
	if got := e.Timeout(); got != before {
		t.Fatalf("a resent message's sample moved the timeout %v -> %v", before, got)
	}

	// Each unanswered round doubles the timeout, up to the ceiling...
	e.Backoff()
	if got := e.Timeout(); got != 2*before {
		t.Fatalf("one backoff: timeout = %v, want %v", got, 2*before)
	}
	for i := 0; i < 20; i++ {
		e.Backoff()
	}
	if got := e.Timeout(); got != time.Second {
		t.Fatalf("after 21 backoffs: timeout = %v, want the 1s ceiling", got)
	}
	// ...the backoff survives a resent message's answer (Karn)...
	e.Sample(time.Microsecond, true)
	if got := e.Timeout(); got != time.Second {
		t.Fatalf("an ambiguous sample cleared the backoff: timeout = %v", got)
	}
	// ...and the first unambiguous sample recomputes it from the estimate.
	e.Sample(20*ms, false)
	if got := e.Timeout(); got < 20*ms || got > 21*ms {
		t.Fatalf("a fresh sample after backoff: timeout = %v, want back near 20ms", got)
	}

	// Clamping: a sub-millisecond link sits on the floor, a multi-second one
	// under the ceiling, and so does an out-of-range initial value.
	fast := NewRTO(50*ms, 2*ms, time.Second)
	for i := 0; i < 50; i++ {
		fast.Sample(30*time.Microsecond, false)
	}
	if got := fast.Timeout(); got != 2*ms {
		t.Fatalf("30µs round trips: timeout = %v, want the 2ms floor", got)
	}
	slow := NewRTO(50*ms, 2*ms, time.Second)
	slow.Sample(3*time.Second, false)
	if got := slow.Timeout(); got != time.Second {
		t.Fatalf("3s round trip: timeout = %v, want the 1s ceiling", got)
	}
	high, low := NewRTO(time.Hour, 2*ms, time.Second), NewRTO(0, 2*ms, time.Second)
	if high.Timeout() != time.Second || low.Timeout() != 2*ms {
		t.Fatalf("initial values out of range: timeouts %v and %v, want 1s and 2ms", high.Timeout(), low.Timeout())
	}
}
