package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hermes"
	"hermes/internal/engine"
	"hermes/internal/partition"
	"hermes/internal/sequencer"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// sampleEvery is the share of transactions whose submit→done interval the
// traced run records as a span.
const sampleEvery = 64

// inprocSystem runs a workload on engine.Cluster inside this process. The
// bench is the client: one submitter goroutine in stream order, a fixed
// in-flight window, and a stopwatch around every transaction.
type inprocSystem struct {
	w *workload
	// record keeps every latency and a span for one transaction in
	// sampleEvery: the bench's own tracing, from outside the engine.
	// telemetry switches the engine's lifecycle tracing on.
	record    bool
	telemetry bool
	gen       generator // continues across incarnations of one run
	nodes     []tx.NodeID
	db        *engine.Cluster

	submitted atomic.Int64
	completed atomic.Int64
	latSum    atomic.Int64 // ns
	keys      int64        // Σ keys of submitted transactions; submitter-owned until it exits
	stop      atomic.Bool
	abort     chan struct{} // closed by close(): releases a wedged submitter and its waiters
	exited    chan struct{} // closed when the submitter returns
	waiters   sync.WaitGroup

	latMu     sync.Mutex
	latencies []time.Duration
	rec       *spanRec
	spanRoot  int
}

func newInprocSystem(rs runSpec, gen generator) *inprocSystem {
	s := &inprocSystem{w: rs.w, record: rs.record, telemetry: rs.telemetry, gen: gen, abort: make(chan struct{})}
	w := rs.w
	for i := 0; i < w.nodes; i++ {
		s.nodes = append(s.nodes, tx.NodeID(i))
	}
	return s
}

func (s *inprocSystem) boot(rec *spanRec, parent int) (bootTimes, error) {
	pf, err := hermes.PolicyFactoryFor(hermes.PolicyHermes,
		partition.NewUniformRange(0, s.w.rows, s.w.nodes), 0, int(s.w.rows/40))
	if err != nil {
		return bootTimes{}, err
	}
	cfg := engine.Config{
		Nodes:  s.nodes,
		Policy: pf,
		// Size-only sealing: a run submits whole batches, so the batch
		// stream is a function of the transaction stream alone.
		Seq: sequencer.Config{BatchSize: s.w.batch, Interval: time.Hour},
	}
	if s.telemetry {
		cfg.Telemetry = telemetry.New(s.nodes, 0) // default rings, as hermes.Open builds them
	}
	sp := rec.start(parent, "engine.New")
	s.db, err = engine.New(cfg)
	rec.end(sp)
	if err != nil {
		return bootTimes{}, err
	}
	sp = rec.start(parent, "engine.LoadRecord")
	for r := uint64(0); r < s.w.rows; r++ {
		s.db.LoadRecord(tx.MakeKey(0, r), make([]byte, s.w.payload))
	}
	rec.end(sp)
	return bootTimes{}, nil
}

func (s *inprocSystem) start(rec *spanRec, parent, _, size int) error {
	s.rec, s.spanRoot = rec, parent
	s.exited = make(chan struct{})
	go s.submit(size)
	return nil
}

// submit is the ordered closed-loop client. It runs until told to stop —
// or for exactly size transactions when size is positive — and stops only
// on a batch boundary, so the leader is never left holding a partial batch.
func (s *inprocSystem) submit(size int) {
	defer close(s.exited)
	sem := make(chan struct{}, s.w.window)
	for i := 0; ; i++ {
		if i%s.w.batch == 0 && (s.stop.Load() || (size > 0 && i >= size)) {
			return
		}
		p := s.gen.next()
		select {
		case sem <- struct{}{}:
		case <-s.abort:
			return
		}
		t0 := time.Now()
		done, err := s.db.Submit(s.nodes[0], p)
		if err != nil {
			// Only a stopped cluster refuses a submission.
			fmt.Fprintln(os.Stderr, "bench: submit:", err)
			return
		}
		s.keys += int64(len(p.Writes))
		s.submitted.Add(1)
		sampled := s.record && i%sampleEvery == 0
		s.waiters.Add(1)
		go func() {
			defer s.waiters.Done()
			select {
			case <-done:
			case <-s.abort:
				return
			}
			t1 := time.Now()
			lat := t1.Sub(t0)
			s.latSum.Add(int64(lat))
			if s.record {
				s.latMu.Lock()
				s.latencies = append(s.latencies, lat)
				s.latMu.Unlock()
				if sampled {
					s.rec.add(s.spanRoot, "txn", t0, t1)
				}
			}
			s.completed.Add(1)
			<-sem
		}()
	}
}

func (s *inprocSystem) stopSubmitting() { s.stop.Store(true) }

func (s *inprocSystem) poll() (progress, error) {
	p := progress{
		// completed first: a transaction counted there was submitted.
		completed: s.completed.Load(),
		latSum:    time.Duration(s.latSum.Load()),
		cpu:       selfCPU(),
	}
	p.submitted = s.submitted.Load()
	select {
	case <-s.exited:
		p.tail = true
		p.done = s.completed.Load() == s.submitted.Load()
	default:
	}
	return p, nil
}

func (s *inprocSystem) finish(rec *spanRec, parent int, p progress) (*incarnationReport, error) {
	rep := &incarnationReport{rssPeakMB: rssPeakMB(os.Getpid())}
	sp := rec.start(parent, "engine.DrainDetail")
	t0 := time.Now()
	timeout := 30 * time.Second
	if !p.done {
		timeout = 200 * time.Millisecond // a stalled engine will not drain; just fetch the diagnosis
	}
	drainErr := s.db.DrainDetail(timeout)
	rep.settle = time.Since(t0)
	rec.end(sp)
	if drainErr != nil {
		rep.unsettled = drainErr.Error()
	}

	col := s.db.Collector()
	c := &rep.ctr
	c.committed = col.Committed()
	c.netMsgs, c.netBytes = s.db.NetStats().Totals()
	c.migrations, c.remoteReads = col.Migrations(), col.RemoteReads()
	rs := s.db.ReliableStats()
	c.retransmits, c.dups = rs.Retransmits, rs.DupsDropped
	if f := s.db.Node(s.nodes[0]).Policy().Placement().Fusion; f != nil {
		fs := f.Stats()
		c.fusionEvictions, c.fusionOwnerMoves = fs.Evictions, fs.OwnerMoves
	}
	ss := s.db.SeqStats()
	c.seqBatches, c.seqTxns = ss.Batches, ss.Txns
	rt := col.Routing()
	c.routing, c.routingTxns = rt.Total, rt.Txns
	bd := col.AvgBreakdown()
	n := float64(c.committed)
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 * n }
	c.phaseMs = [numPhases]float64{
		phaseSched: ms(bd.Scheduling), phaseLockWait: ms(bd.LockWait),
		phaseQueueWait: ms(bd.QueuePlan + bd.QueueWait), phaseStorage: ms(bd.Storage),
		phaseRemoteWait: ms(bd.RemoteWait), phaseOther: ms(bd.Other),
	}
	c.phaseCommits = c.committed
	s.latMu.Lock()
	rep.latencies = s.latencies
	s.latMu.Unlock()

	if !p.done || drainErr != nil {
		return rep, nil // stalled: the state is mid-flight and proves nothing
	}
	// Outputs: every answered transaction committed exactly once, and the
	// row counters hold exactly the increments the stream asked for.
	sp = rec.start(parent, "verify")
	defer rec.end(sp)
	if c.committed != p.completed {
		return nil, fmt.Errorf("%d transactions answered but %d committed", p.completed, c.committed)
	}
	var records int
	var sum uint64
	for _, id := range s.nodes {
		store := s.db.Node(id).Store()
		for _, k := range store.Keys() {
			v, _ := store.Read(k)
			if len(v) < 8 {
				return nil, fmt.Errorf("row %v holds %d bytes", k, len(v))
			}
			records++
			sum += binary.LittleEndian.Uint64(v)
		}
	}
	if uint64(records) != s.w.rows {
		return nil, fmt.Errorf("%d rows stored, %d loaded", records, s.w.rows)
	}
	if sum != uint64(s.keys) {
		return nil, fmt.Errorf("row counters sum to %d, the stream incremented %d keys", sum, s.keys)
	}
	return rep, nil
}

func (s *inprocSystem) close() {
	select {
	case <-s.abort:
		return
	default:
	}
	close(s.abort)
	if s.exited != nil {
		<-s.exited
	}
	s.waiters.Wait()
	if s.db != nil {
		s.db.Stop()
	}
}
