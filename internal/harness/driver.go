package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/sequencer"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// leaderControl is the slice of the total-order leader the driver needs
// for the deterministic end-of-run flush: how many transactions it has
// sealed plus how many sit pending (Stats().Txns and .Pending), and a way
// to force a seal. The cluster driver runs on the sequencer.Leader in its
// own process; the in-process twin wraps the engine's sequencer group.
// Both must implement it over the same counters or the tail batch
// composition diverges.
type leaderControl interface {
	Stats() sequencer.LeaderStats
	Flush()
}

// RunResult summarizes one completed driver run. The quantiles are
// histogram-backed (log2 buckets, see telemetry.LatencyHist): each is the
// upper bound of the bucket holding the exact sample quantile, so it is
// within one power-of-two bucket of the exact value — and unlike the old
// sorted-sample p95 it composes across processes and windows.
type RunResult struct {
	Committed int64   `json:"committed"`
	ElapsedMs float64 `json:"elapsed_ms"`
	QPS       float64 `json:"qps"`
	AvgMs     float64 `json:"avg_ms"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
}

// RunStatus is the driver's live progress, served at /runstatus so the
// orchestrator can time a mid-run fault and wait for completion.
type RunStatus struct {
	Running   bool       `json:"running"`
	Done      bool       `json:"done"`
	Submitted int64      `json:"submitted"`
	Completed int64      `json:"completed"`
	Total     int64      `json:"total"`
	Err       string     `json:"err,omitempty"`
	Result    *RunResult `json:"result,omitempty"`
}

// driver is the closed-loop client: one ordered submitter goroutine with a
// bounded in-flight window. A single submitter is what pins batch
// composition — the leader receives the stream in submission order, seals
// every full batch at exactly the configured size, and the driver only
// force-flushes the tail once every submission has provably arrived. The
// window is the run's only admission control: at most window submissions
// are outstanding, so the next one waits for a completion.
type driver struct {
	mu      sync.Mutex
	running bool
	done    bool
	err     string
	result  *RunResult

	submitted atomic.Int64
	completed atomic.Int64
	total     atomic.Int64
	abort     chan struct{}
}

func newDriver() *driver {
	return &driver{abort: make(chan struct{})}
}

// status snapshots the driver's progress.
func (d *driver) status() RunStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	return RunStatus{
		Running:   d.running,
		Done:      d.done,
		Submitted: d.submitted.Load(),
		Completed: d.completed.Load(),
		Total:     d.total.Load(),
		Err:       d.err,
		Result:    d.result,
	}
}

// start marks the driver busy; it reports false if a run is already in
// progress. A finished driver may start again — multi-phase workloads (run,
// checkpoint, run the continuation) reuse the same process — so starting
// resets the previous run's progress and result.
func (d *driver) start(total int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.running {
		return false
	}
	d.running = true
	d.done = false
	d.err = ""
	d.result = nil
	d.submitted.Store(0)
	d.completed.Store(0)
	d.total.Store(int64(total))
	return true
}

func (d *driver) finish(res *RunResult, err error) {
	d.mu.Lock()
	d.running = false
	d.done = true
	d.result = res
	if err != nil {
		d.err = err.Error()
	}
	d.mu.Unlock()
}

// stop aborts the completion waiters (shutdown while a run is wedged).
func (d *driver) stop() {
	select {
	case <-d.abort:
	default:
		close(d.abort)
	}
}

// run drives the full stream through submit and returns once every
// transaction has completed. At most one run may be in flight at a time
// (start gates that).
func (d *driver) run(
	submit func(tx.Procedure) (<-chan struct{}, error),
	procs []*tx.CounterProc,
	window int,
	lc leaderControl,
	timeout time.Duration,
) (*RunResult, error) {
	res, err := d.runInner(submit, procs, window, lc, timeout)
	d.finish(res, err)
	return res, err
}

func (d *driver) runInner(
	submit func(tx.Procedure) (<-chan struct{}, error),
	procs []*tx.CounterProc,
	window int,
	lc leaderControl,
	timeout time.Duration,
) (*RunResult, error) {
	deadline := time.Now().Add(timeout)
	start := time.Now()
	// The leader's counters are cumulative across runs; arrival checks for
	// this run are relative to where the sealed stream already stood.
	base := lc.Stats()
	if base.Pending != 0 {
		return nil, fmt.Errorf("harness: leader holds %d pending from a previous run", base.Pending)
	}
	sem := make(chan struct{}, window)
	latencies := make([]int64, len(procs)) // nanoseconds, index = submission order
	var wg sync.WaitGroup

	for i, p := range procs {
		select {
		case sem <- struct{}{}:
		case <-d.abort:
			return nil, fmt.Errorf("harness: driver aborted at submission %d", i)
		}
		t0 := time.Now()
		ch, err := submit(p)
		if err != nil {
			<-sem
			waitDone(&wg, deadline)
			return nil, fmt.Errorf("harness: submit %d: %w", i, err)
		}
		d.submitted.Add(1)
		wg.Add(1)
		go func(i int, t0 time.Time, ch <-chan struct{}) {
			defer wg.Done()
			select {
			case <-ch:
				latencies[i] = time.Since(t0).Nanoseconds()
				d.completed.Add(1)
			case <-d.abort:
			}
			<-sem
		}(i, t0, ch)
	}

	// Every submission is out; force the tail batch only once the leader
	// provably holds all of them (sealed + pending == total). Flushing any
	// earlier would split the tail at whatever prefix happened to have
	// arrived, and the split point — hence batch composition, hence routing
	// — would be a race instead of a function of the input.
	total := int64(len(procs))
	for {
		st := lc.Stats()
		if arrived := st.Txns - base.Txns + int64(st.Pending); arrived >= total {
			break
		} else if time.Now().After(deadline) {
			return nil, fmt.Errorf("harness: leader saw %d of %d submissions within %v", arrived, total, timeout)
		}
		select {
		case <-d.abort:
			return nil, fmt.Errorf("harness: driver aborted waiting for leader arrivals")
		case <-time.After(time.Millisecond):
		}
	}
	for {
		if lc.Stats().Pending == 0 {
			break
		}
		lc.Flush()
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("harness: leader tail did not flush within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}

	if !waitDone(&wg, deadline) {
		return nil, fmt.Errorf("harness: %d of %d transactions incomplete after %v",
			total-d.completed.Load(), total, timeout)
	}
	elapsed := time.Since(start)

	res := &RunResult{Committed: d.completed.Load(), ElapsedMs: float64(elapsed.Milliseconds())}
	if elapsed > 0 {
		res.QPS = float64(res.Committed) / elapsed.Seconds()
	}
	if len(latencies) > 0 {
		var hist telemetry.LatencyHist
		for _, l := range latencies {
			hist.Observe(l)
		}
		snap := hist.Snapshot()
		res.AvgMs = snap.MeanNs() / 1e6
		res.P50Ms = float64(snap.Quantile(0.50)) / 1e6
		res.P95Ms = float64(snap.Quantile(0.95)) / 1e6
		res.P99Ms = float64(snap.Quantile(0.99)) / 1e6
		res.MaxMs = float64(snap.MaxNs()) / 1e6
	}
	return res, nil
}

// waitDone waits for wg up to deadline, reporting whether it drained.
func waitDone(wg *sync.WaitGroup, deadline time.Time) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(time.Until(deadline)):
		return false
	}
}
