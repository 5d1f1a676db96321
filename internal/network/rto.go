package network

import "time"

// RTO is a retransmission timeout estimated from measured round trips, the
// RFC 6298 way: Jacobson/Karels smoothing of the round-trip time (SRTT) and
// of its mean deviation (RTTVAR), a timeout of SRTT + 4·RTTVAR clamped to
// [floor, ceil], exponential backoff per retransmit round that gets no
// answer, and Karn's rule — the answer to a resent message is ambiguous
// (which copy does it answer?), so it is never sampled and the backed-off
// timeout stands until an unambiguous sample arrives.
//
// The reliable link times each sendLink's retransmissions with one, and the
// session front-end times its queue resends with another; nothing else
// paces either. An RTO is not safe for concurrent use: its owner's lock
// guards it.
type RTO struct {
	floor, ceil  time.Duration
	srtt, rttvar time.Duration
	sampled      bool
	timeout      time.Duration
}

// NewRTO returns an estimator whose timeout is initial until the first
// sample, and always within [floor, ceil].
func NewRTO(initial, floor, ceil time.Duration) RTO {
	e := RTO{floor: floor, ceil: ceil}
	e.timeout = e.clamp(initial)
	return e
}

// Sample folds one measured round trip into the estimate and recomputes
// the timeout, dropping any backoff. A round trip of a message that was
// resent is ignored (Karn's rule).
func (e *RTO) Sample(rtt time.Duration, resent bool) {
	if resent {
		return
	}
	if !e.sampled {
		e.srtt, e.rttvar, e.sampled = rtt, rtt/2, true
	} else {
		dev := e.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		e.rttvar += (dev - e.rttvar) / 4
		e.srtt += (rtt - e.srtt) / 8
	}
	e.timeout = e.clamp(e.srtt + 4*e.rttvar)
}

// Backoff doubles the timeout, up to the ceiling: a retransmit round went
// unanswered.
func (e *RTO) Backoff() { e.timeout = e.clamp(2 * e.timeout) }

// Timeout is how long a message may go unanswered before it is resent.
func (e *RTO) Timeout() time.Duration { return e.timeout }

func (e *RTO) clamp(d time.Duration) time.Duration {
	return min(max(d, e.floor), e.ceil)
}
