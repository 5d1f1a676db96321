package main

import (
	"sort"
	"time"
)

// sample is one reading of a running incarnation's cumulative counters.
type sample struct {
	at        time.Duration // on the run's clock
	submitted int64
	completed int64
	// latSum is Σ submit→done over the completed transactions, from the
	// bench's own stopwatch. The cluster's client lives in another process
	// and leaves it zero; latency then comes from Little's law.
	latSum time.Duration
	cpu    time.Duration // CPU consumed by the system under test
	// tail: the client has submitted all it will; the pipeline is draining.
	tail bool
}

func (s sample) inflight() int64 { return s.submitted - s.completed }

// window is the difference of two samples about windowLen apart.
type window struct {
	end       time.Duration // on the run's clock
	dur       time.Duration
	completed int64
	latSum    time.Duration
	// inflightArea is ∫ in-flight dt in transaction·seconds; divided by the
	// completions of the same interval it is the mean latency (Little).
	inflightArea float64
	cpu          time.Duration
}

// estimator turns progress samples into the end-to-end numbers while
// tolerating a system that stops making progress. An incarnation is one
// boot of the system; a stalled incarnation is ended and replaced, and the
// transactions it never answered are counted.
//
// Kept out of the estimate are: the first window of each incarnation
// (warm-up: empty pipeline, cold caches); windows without a single
// completion (they lie wholly inside a stall and are accounted as stall
// time) and the window in which a stall began; windows that reach into the
// tail where the client has stopped submitting; and a trailing fragment
// shorter than half a window.
type estimator struct {
	windowLen  time.Duration
	stallAfter time.Duration

	kept       [][]window // per incarnation
	stallTime  time.Duration
	stalls     int
	attempted  int64
	unanswered int64

	// The open incarnation.
	last         sample
	open         sample // where the open window started
	area         float64
	warm         bool // the open window is past the incarnation's first
	tail         bool // the open window reaches into the drain
	lastProgress time.Duration
}

func newEstimator(windowLen, stallAfter time.Duration) *estimator {
	return &estimator{windowLen: windowLen, stallAfter: stallAfter}
}

// begin opens an incarnation at its first sample (counters usually zero).
func (e *estimator) begin(s sample) {
	e.kept = append(e.kept, nil)
	e.last, e.open = s, s
	e.area = 0
	e.warm, e.tail = false, false
	e.lastProgress = s.at
}

// observe feeds the next sample and reports whether the incarnation has
// stalled: work is outstanding and nothing completed for stallAfter.
func (e *estimator) observe(s sample) (stalled bool) {
	e.area += float64(e.last.inflight()) * (s.at - e.last.at).Seconds()
	if s.completed > e.last.completed {
		e.lastProgress = s.at
	}
	e.last = s
	e.tail = e.tail || s.tail
	if s.at-e.open.at >= e.windowLen {
		e.closeWindow()
	}
	return s.inflight() > 0 && s.at-e.lastProgress >= e.stallAfter
}

func (e *estimator) closeWindow() {
	w := window{
		end:          e.last.at,
		dur:          e.last.at - e.open.at,
		completed:    e.last.completed - e.open.completed,
		latSum:       e.last.latSum - e.open.latSum,
		inflightArea: e.area,
		cpu:          e.last.cpu - e.open.cpu,
	}
	switch {
	case w.completed == 0:
		e.stallTime += w.dur
	case e.warm && !e.tail:
		e.kept[len(e.kept)-1] = append(e.kept[len(e.kept)-1], w)
	}
	e.warm = true
	e.open = e.last
	e.area = 0
}

// end closes the incarnation. Whatever it submitted and never completed
// is unanswered: the client got no reply.
func (e *estimator) end(stalled bool) {
	if e.last.at-e.open.at >= e.windowLen/2 {
		e.closeWindow()
	}
	if stalled {
		e.stalls++
		// The window in which progress stopped is part stall: drop it.
		ws := e.kept[len(e.kept)-1]
		for len(ws) > 0 && ws[len(ws)-1].end > e.lastProgress {
			ws = ws[:len(ws)-1]
		}
		e.kept[len(e.kept)-1] = ws
	}
	e.attempted += e.last.submitted
	e.unanswered += e.last.inflight()
}

// estimate is what the kept windows say.
type estimate struct {
	windows       int
	incarnations  int     // with at least one kept window
	throughputTPS float64 // completions per second
	latMeanMs     float64
	cpuUsPerTxn   float64
}

// estimate pools each incarnation's kept windows and reports the median
// over incarnations.
//
// Pooled, not the median of window rates: with a heap of a million rows
// every garbage collection costs a window a fifth of its rate, so window
// rates are bimodal and their median flips between the modes from run to
// run, while the pooled rate averages over them. Median over incarnations,
// because a cluster incarnation now and then runs a third slower from boot
// to teardown; one such draw must not move the run's number.
func (e *estimator) estimate() estimate {
	var out estimate
	var tps, lat, cpu []float64
	for _, ws := range e.kept {
		if len(ws) == 0 {
			continue
		}
		var p window
		for _, w := range ws {
			p.dur += w.dur
			p.completed += w.completed
			p.latSum += w.latSum
			p.inflightArea += w.inflightArea
			p.cpu += w.cpu
		}
		out.windows += len(ws)
		out.incarnations++
		n := float64(p.completed)
		tps = append(tps, n/p.dur.Seconds())
		if p.latSum > 0 {
			lat = append(lat, p.latSum.Seconds()*1e3/n)
		} else {
			lat = append(lat, p.inflightArea/n*1e3)
		}
		cpu = append(cpu, p.cpu.Seconds()*1e6/n)
	}
	out.throughputTPS, out.latMeanMs, out.cpuUsPerTxn = median(tps), median(lat), median(cpu)
	return out
}

// median of xs (mean of the middle two for an even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
