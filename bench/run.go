package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// Run shape. A run measures for its --seconds; progress is sampled every
// pollEvery into windows of windowLen; an incarnation that answers nothing
// for stallAfter is declared stalled, torn down and replaced.
const (
	pollEvery  = 20 * time.Millisecond
	windowLen  = 250 * time.Millisecond
	stallAfter = 3 * time.Second

	// setups is how often an untraced run sets the system up at least, and
	// into how many consecutive groups the set-up times are split: setup_s
	// is the median of the group means, and the last instance is the one
	// measured. A set-up of milliseconds is repeated until setupBudget is
	// spent (at most maxSetups times), so that each group averages over
	// allocator and GC timing instead of sampling it.
	setups      = 5
	setupBudget = time.Second
	maxSetups   = 1000
	// maxStalls is how many watchdog-declared stalls a run absorbs by
	// rebooting before it ends short.
	maxStalls = 3
	// maxClusterSlice caps one cluster incarnation's share of the run.
	maxClusterSlice = 2500 * time.Millisecond
	// minIncarnation is the least measuring time worth a fresh boot.
	minIncarnation = time.Second
	// maxIncarnations is a backstop against a system that finishes every
	// incarnation instantly.
	maxIncarnations = 64
)

// counters is what the layers report about one incarnation, read from the
// counters they already export.
type counters struct {
	committed   int64 // engine-side commits
	netMsgs     int64
	netBytes    int64
	migrations  int64
	remoteReads int64
	retransmits int64
	dups        int64

	fsyncs      int64
	batchedAcks int64

	// One routing replica's fusion table (the replicas are identical).
	fusionEvictions  int64
	fusionOwnerMoves int64

	seqBatches int64
	seqTxns    int64

	// Routing time and transactions summed over the replicas: every node
	// routes every batch.
	routing     time.Duration
	routingTxns int64

	// phaseMs[i] is Σ over commits of latency component i, in ms.
	phaseMs      [numPhases]float64
	phaseCommits int64
}

// Latency components of a committed transaction, as the engine attributes
// them (metrics.Breakdown in-process, /phases on the cluster).
const (
	phaseSched = iota
	phaseLockWait
	phaseQueueWait // queue-mode planning share + queue residence
	phaseStorage
	phaseRemoteWait
	phaseOther
	numPhases
)

func (c *counters) add(o counters) {
	c.committed += o.committed
	c.netMsgs += o.netMsgs
	c.netBytes += o.netBytes
	c.migrations += o.migrations
	c.remoteReads += o.remoteReads
	c.retransmits += o.retransmits
	c.dups += o.dups
	c.fsyncs += o.fsyncs
	c.batchedAcks += o.batchedAcks
	c.fusionEvictions += o.fusionEvictions
	c.fusionOwnerMoves += o.fusionOwnerMoves
	c.seqBatches += o.seqBatches
	c.seqTxns += o.seqTxns
	c.routing += o.routing
	c.routingTxns += o.routingTxns
	for i := range c.phaseMs {
		c.phaseMs[i] += o.phaseMs[i]
	}
	c.phaseCommits += o.phaseCommits
}

// progress is one poll of a running incarnation.
type progress struct {
	submitted int64
	completed int64
	latSum    time.Duration // in-process stopwatch only
	cpu       time.Duration
	// done: everything submitted was answered and nothing more is coming.
	done bool
	// lost: every layer reports idle, yet transactions are unanswered —
	// their completions can no longer arrive.
	lost bool
	// tail: the client has submitted everything it will.
	tail bool
}

// incarnationReport is what finish learned about a finished incarnation.
type incarnationReport struct {
	ctr counters
	// unsettled says why the system did not reach a quiescent state
	// ("" = it settled); it is the stall's diagnosis.
	unsettled   string
	settle      time.Duration
	driverAvgMs float64 // the cluster driver's own mean latency, if it finished
	latencies   []time.Duration
	rssPeakMB   float64
	twinChecked bool
}

// system is a bootable instance of the program under one workload. The
// runner drives both kinds — engine.Cluster in this process, hermesd
// processes over TCP — through it.
type system interface {
	// boot brings a fresh instance up to where the first transaction can
	// be submitted: processes started, rows loaded.
	boot(rec *spanRec, parent int) (bootTimes, error)
	// start begins running the workload's stream at transaction skip.
	// size is the transaction count to run where the client cannot be
	// stopped (cluster); the in-process client runs until stopSubmitting,
	// or for size transactions if that is positive. Sampled transactions
	// are recorded as spans under parent.
	start(rec *spanRec, parent, skip, size int) error
	// stopSubmitting ends submission at the next batch boundary.
	stopSubmitting()
	poll() (progress, error)
	// finish settles the instance, reads its counters and checks its
	// outputs. An error is a correctness failure, never a stall.
	finish(rec *spanRec, parent int, p progress) (*incarnationReport, error)
	close()
}

// runResult is one pass over one workload.
type runResult struct {
	setupS    []float64
	bootParts bootTimes // of the last boot
	est       estimate
	attempted int64
	failed    int64 // submitted and never committed
	lostAcks  int64 // committed, client never notified
	stalls    int   // incarnations that ended with clients unanswered
	stallS    float64
	reasons   []string

	ctr          counters
	settleMs     float64
	latencies    []time.Duration
	rssPeakMB    float64
	twinChecked  int
	littleVsDrvr float64 // |Little − driver mean| ÷ driver mean, in %, worst incarnation
	pollLateMs   float64
	incarnations int
	selfTimeByOp map[string]time.Duration
}

// bootTimes splits a cluster boot into the harness's steps (zero in-process).
type bootTimes struct {
	startS, seedS float64
}

// runSpec says what one pass of one workload measures.
type runSpec struct {
	w       *workload
	seed    int64
	seconds float64 // how long to measure
	// txns, when positive, replaces seconds: the pass runs exactly this
	// many transactions (a batch multiple), so every count the layers
	// report repeats exactly for equal seeds.
	txns int
	// record switches the bench's own tracing on: every latency kept, a
	// span per sampled transaction. telemetry switches the engine's on.
	record    bool
	telemetry bool
	// setups is the least number of set-ups; cheap ones are repeated
	// further (see setupBudget) so that their median is steady too.
	setups int
	window time.Duration // progress window (windowLen, shorter for the smoke run)
	rec    *spanRec
}

// runWorkload sets the system up, measures it, and checks its outputs. A
// stall shortens or splits the measurement but is not an error; an error
// return means wrong outputs or a harness failure.
func runWorkload(env *environment, rs runSpec) (*runResult, error) {
	w, rec := rs.w, rs.rec
	res := &runResult{}
	root := rec.start(0, "run:"+w.name)
	defer rec.end(root)

	gen := w.generator(rs.seed) // one stream per run, continued across incarnations
	var sys system
	boot := func(name string) error {
		if sys != nil {
			sys.close()
		}
		if w.cluster {
			sys = newClusterSystem(env, w, rs.seed, rs.telemetry)
		} else {
			sys = newInprocSystem(rs, gen)
		}
		sp := rec.start(root, name)
		defer rec.end(sp)
		var err error
		res.bootParts, err = sys.boot(rec, sp)
		return err
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	// Set-up, repeated for a steady median; the last instance is measured.
	var setupTotal time.Duration
	for i := 0; i < rs.setups || (rs.setups > 1 && setupTotal < setupBudget && i < maxSetups); i++ {
		t0 := time.Now()
		if err := boot("setup"); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		took := time.Since(t0)
		setupTotal += took
		res.setupS = append(res.setupS, took.Seconds())
	}

	est := newEstimator(rs.window, stallAfter)
	clock := time.Now()
	remaining := time.Duration(rs.seconds * float64(time.Second))
	if rs.txns > 0 {
		remaining = time.Hour // the transaction count ends the run
	}
	rate := w.seedTPS
	skip := 0
	stallBudget := maxStalls
	var lateSum time.Duration
	var polls int

	for inc := 0; (inc == 0 || remaining >= minIncarnation) && (rs.txns == 0 || skip < rs.txns) && inc < maxIncarnations; inc++ {
		if inc > 0 {
			if err := boot("reboot"); err != nil {
				return nil, fmt.Errorf("reboot %d: %w", inc, err)
			}
		}
		res.incarnations++
		// A cluster incarnation is sized to fill the remaining time at the
		// rate seen so far, but no more than maxClusterSlice of it. Short
		// incarnations bound two seed-code effects: every lost completion
		// leaks a window slot until teardown (26 of them wedge a B=25, W=50
		// loop), and an occasional incarnation is slow for its whole life,
		// which the median over several incarnations absorbs.
		size := 0
		if w.cluster {
			slice := min(remaining, maxClusterSlice)
			size = max(w.batch, int(rate*slice.Seconds())/w.batch*w.batch)
		}
		if rs.txns > 0 && (size == 0 || size > rs.txns-skip) {
			size = rs.txns - skip
		}
		isp := rec.start(root, "incarnation")
		if err := sys.start(rec, isp, skip, size); err != nil {
			return nil, fmt.Errorf("incarnation %d: %w", inc, err)
		}
		began := time.Now()
		deadline := began.Add(remaining)
		p, err := sys.poll()
		if err != nil {
			return nil, err
		}
		est.begin(sample{at: began.Sub(clock), cpu: p.cpu})

		stalled := false
		next := began
		for {
			next = next.Add(pollEvery)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			} else {
				next = time.Now() // fell behind: do not burst to catch up
			}
			now := time.Now()
			lateSum += now.Sub(next)
			polls++
			if p, err = sys.poll(); err != nil {
				return nil, fmt.Errorf("incarnation %d: %w", inc, err)
			}
			stalled = est.observe(sample{
				at: now.Sub(clock), submitted: p.submitted, completed: p.completed,
				latSum: p.latSum, cpu: p.cpu, tail: p.tail,
			})
			if now.After(deadline) {
				sys.stopSubmitting()
			}
			if p.done || p.lost || stalled {
				break
			}
		}
		rec.end(isp)
		est.end(stalled || p.lost)
		if stalled {
			stallBudget--
		}
		ran := time.Since(began)
		remaining -= ran
		if p.completed > 0 {
			rate = float64(p.completed) / ran.Seconds()
		}
		skip += int(p.submitted)

		rep, err := sys.finish(rec, root, p)
		if err != nil {
			return nil, fmt.Errorf("incarnation %d: %w", inc, err)
		}
		res.ctr.add(rep.ctr)
		res.settleMs += rep.settle.Seconds() * 1e3
		res.latencies = append(res.latencies, rep.latencies...)
		res.rssPeakMB = max(res.rssPeakMB, rep.rssPeakMB)
		if rep.twinChecked {
			res.twinChecked++
		}
		// An operation failed if it did not commit. A transaction that
		// committed — the engines counted it, and the settled state matched
		// the twin — but whose client was never told is a lost ack: reported
		// as such, not as a failed operation.
		notCommitted := max(p.submitted-rep.ctr.committed, 0)
		res.failed += notCommitted
		if unanswered := p.submitted - p.completed; unanswered > 0 {
			res.lostAcks += unanswered - notCommitted
			reason := fmt.Sprintf("incarnation %d: %d of %d unanswered, %d of them uncommitted: %s",
				inc, unanswered, p.submitted, notCommitted, rep.unsettled)
			res.reasons = append(res.reasons, reason)
			fmt.Fprintln(os.Stderr, "bench: stall:", reason)
		}
		if rep.driverAvgMs > 0 && p.completed > 0 {
			// Little over this whole incarnation against the driver's own
			// stopwatch: the cross-check of the cluster latency estimate.
			little := float64(w.window) / (float64(p.completed) / ran.Seconds()) * 1e3
			res.littleVsDrvr = max(res.littleVsDrvr, 100*math.Abs(little-rep.driverAvgMs)/rep.driverAvgMs)
		}
		if stallBudget == 0 {
			fmt.Fprintf(os.Stderr, "bench: %s stalled %d times; the run ends short\n", w.name, maxStalls)
			break
		}
	}

	res.est = est.estimate()
	res.attempted = est.attempted
	res.stalls, res.stallS = est.stalls, est.stallTime.Seconds()
	if polls > 0 {
		res.pollLateMs = lateSum.Seconds() * 1e3 / float64(polls)
	}
	if res.attempted == 0 || res.est.windows == 0 {
		return nil, fmt.Errorf("no measurement: %d attempted, %d kept windows (%v)", res.attempted, res.est.windows, res.reasons)
	}
	return res, nil
}
