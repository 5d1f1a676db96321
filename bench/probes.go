package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"hermes/internal/core"
	"hermes/internal/durable"
	"hermes/internal/engine"
	"hermes/internal/fusion"
	"hermes/internal/harness"
	"hermes/internal/lock"
	"hermes/internal/network"
	"hermes/internal/partition"
	"hermes/internal/qexec"
	"hermes/internal/router"
	"hermes/internal/sequencer"
	"hermes/internal/storage"
	"hermes/internal/tx"
)

// A probe times one layer's public calls in isolation, from outside the
// layer, on inputs shaped like the workloads'. Each reports the least
// per-call time over probeReps blocks of at least probeBlock each: the
// minimum is the run least disturbed by the rest of the machine.
const (
	probeReps  = 3
	probeBlock = 50 * time.Millisecond
	// forever starts a running minimum of durations.
	forever = time.Duration(math.MaxInt64)
)

// prober carries what the probes share.
type prober struct {
	env   *environment
	w     *workload
	seed  int64
	block time.Duration
	rec   *spanRec
	root  int
	out   map[string]float64
}

// timeOp calibrates n so that op(n) — n calls of the operation — lasts at
// least a block, then returns the least ns per call over probeReps blocks.
func (p *prober) timeOp(op func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		op(n)
		if time.Since(t0) >= p.block || n >= 1<<28 {
			break
		}
		n *= 2
	}
	best := forever
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		op(n)
		best = min(best, time.Since(t0))
	}
	return float64(best) / float64(n)
}

// probeDecls lists the per-layer metrics the probes produce, in perLayer
// order.
func probeDecls() []metricDecl {
	var out []metricDecl
	for _, d := range perLayer {
		if probeNames[d.Name] {
			out = append(out, d)
		}
	}
	return out
}

var probeNames = map[string]bool{
	"core.route_batch_us": true, "core.route_allocs_per_batch": true, "router.calvin_route_batch_us": true,
	"fusion.put_ns": true, "fusion.touch_ns": true, "fusion.evictions_per_put": true,
	"lock.acquire_release_ns": true, "lock.hot_acquire_release_ns": true, "qexec.admit_ns_per_txn": true,
	"storage.read_ns": true, "storage.write_ns": true, "storage.checkpoint_ms": true,
	"sequencer.seal_to_deliver_us": true,
	"tx.gob_encode_ns":             true, "tx.gob_decode_ns": true, "tx.gob_bytes_per_req": true,
	"network.chan_send_ns": true, "network.tcp_rtt_us": true, "network.tcp_deliver_bytes_per_txn": true,
	"network.reliable_send_ns": true,
	"journal.append_ns":        true, "journal.append_durable_us": true, "journal.bytes_per_frame": true,
	"durable.save_ms": true, "durable.load_ms": true, "durable.bytes_per_row": true,
	"harness.recover_s": true, "harness.recover_frames": true,
	"bench.gen_ns_per_txn": true,
}

// runProbes runs every probe and returns their metrics. Inputs come from
// w's own stream; quick shrinks the timed blocks and skips the cluster
// recovery probe (its metrics report 0).
func runProbes(env *environment, w *workload, seed int64, quick bool, rec *spanRec) (map[string]float64, error) {
	p := &prober{env: env, w: w, seed: seed, block: probeBlock, rec: rec, out: map[string]float64{}}
	if quick {
		p.block = 2 * time.Millisecond
	}
	p.root = rec.start(0, "probes")
	defer rec.end(p.root)
	type step struct {
		name string
		run  func() error
	}
	steps := []step{
		{"probe:bench.generate", p.generate},
		{"probe:core.route", p.route},
		{"probe:fusion", p.fusion},
		{"probe:lock", p.lock},
		{"probe:qexec", p.qexec},
		{"probe:storage", p.storage},
		{"probe:sequencer", p.sequencer},
		{"probe:tx.gob", p.gobCodec},
		{"probe:network", p.network},
		{"probe:journal", p.journal},
		{"probe:durable", p.durable},
	}
	if quick {
		p.out["harness.recover_s"], p.out["harness.recover_frames"] = 0, 0
	} else {
		steps = append(steps, step{"probe:harness.recover", p.recovery})
	}
	for _, st := range steps {
		sp := rec.start(p.root, st.name)
		err := st.run()
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return p.out, nil
}

// scratchDir makes a directory for a probe's files below bench/out.
func (p *prober) scratchDir(name string) (string, func(), error) {
	dir, err := os.MkdirTemp(filepath.Join(p.env.out, "run"), name+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil // scratch; a leftover is harmless
}

func nodeIDs(n int) []tx.NodeID {
	ids := make([]tx.NodeID, n)
	for i := range ids {
		ids[i] = tx.NodeID(i)
	}
	return ids
}

// generate: what the bench's own transaction generator costs, so it can be
// held against cpu_us_per_txn (it runs inside the measured process on the
// in-process workloads).
func (p *prober) generate() error {
	gen := p.w.generator(p.seed)
	p.out["bench.gen_ns_per_txn"] = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			gen.next()
		}
	})
	return nil
}

// route: Prescient.RouteUser on consecutive batch-sized slices of the
// workload's stream, against the fusion-less Calvin router as the floor.
func (p *prober) route() error {
	const batches = 400
	gen := p.w.generator(p.seed)
	stream := make([][]*tx.Request, batches)
	id := tx.TxnID(1)
	for b := range stream {
		stream[b] = make([]*tx.Request, p.w.batch)
		for i := range stream[b] {
			stream[b][i] = tx.NewRequest(id, gen.next())
			id++
		}
	}
	base := partition.NewUniformRange(0, p.w.rows, p.w.nodes)
	active := nodeIDs(p.w.nodes)
	policies := []struct {
		metric string
		policy router.Policy
	}{
		{"core.route_batch_us", core.New(base, active, core.DefaultConfig(int(p.w.rows/40)))},
		{"router.calvin_route_batch_us", router.NewCalvin(base, active)},
	}
	for _, pc := range policies {
		next := 0
		routeN := func(n int) {
			for i := 0; i < n; i++ {
				pc.policy.RouteUser(stream[next%batches])
				next++
			}
		}
		p.out[pc.metric] = p.timeOp(routeN) / 1e3
		if pc.metric == "core.route_batch_us" {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			routeN(batches)
			runtime.ReadMemStats(&after)
			p.out["core.route_allocs_per_batch"] = float64(after.Mallocs-before.Mallocs) / batches
		}
	}
	return nil
}

// fusion: Put and Touch on a table held at capacity by a key space four
// times its size, as inproc-ycsb holds it.
func (p *prober) fusion() error {
	const capacity = 25_000
	t := fusion.New(capacity, fusion.LRU)
	key := func(i int) tx.Key { return tx.MakeKey(0, uint64(i%(4*capacity))) }
	for i := 0; i < capacity; i++ {
		t.Put(key(i), tx.NodeID(i%3))
	}
	next := capacity
	var puts int64
	before := t.Stats().Evictions
	p.out["fusion.put_ns"] = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			t.Put(key(next), tx.NodeID(next%3))
			next++
		}
		puts += int64(n)
	})
	p.out["fusion.evictions_per_put"] = per(float64(t.Stats().Evictions-before), puts)
	resident := t.Snapshot()
	keys := make([]tx.Key, 0, len(resident))
	for k := range resident {
		keys = append(keys, k)
	}
	next = 0
	p.out["fusion.touch_ns"] = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			t.Touch(keys[next%len(keys)])
			next++
		}
	})
	return nil
}

// lock: Acquire → granted → Release of the conservative lock manager,
// uncontended on three keys, and on 32 hot keys with the releases on a
// second goroutine so that grants queue as they do under inproc-hotkey.
func (p *prober) lock() error {
	m := lock.NewManager()
	id := tx.TxnID(1)
	p.out["lock.acquire_release_ns"] = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			k := uint64(id) * 3
			g := m.Acquire(id, nil, []tx.Key{tx.MakeKey(0, k), tx.MakeKey(0, k+1), tx.MakeKey(0, k+2)})
			<-g.Done()
			m.Release(id)
			id++
		}
	})

	hot := lock.NewManager()
	id = 1
	p.out["lock.hot_acquire_release_ns"] = p.timeOp(func(n int) {
		// Sized to the call count, so the scheduler side never blocks on
		// the hand-off and every grant queues behind its predecessors.
		grants := make(chan lock.Granted, n)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range grants {
				<-g.Done()
				hot.Release(g.ID())
			}
		}()
		for i := 0; i < n; i++ {
			grants <- hot.Acquire(id, nil, []tx.Key{tx.MakeKey(0, uint64(id)%32)})
			id++
		}
		close(grants)
		wg.Wait()
	})
	return nil
}

// qexec: AdmitBatch of 256 single-key operations on 32 hot keys, each
// released inline by the bucket worker that runs it.
func (p *prober) qexec() error {
	const batch = 256
	e := qexec.New(qexec.Config{})
	defer e.Close()
	id := tx.TxnID(1)
	perBatch := p.timeOp(func(n int) {
		for b := 0; b < n; b++ {
			var wg sync.WaitGroup
			wg.Add(batch)
			ops := make([]*qexec.Op, batch)
			for i := range ops {
				tid := id
				ops[i] = &qexec.Op{ID: tid, Excl: []tx.Key{tx.MakeKey(0, uint64(tid)%32)}, OnReady: func() {
					e.Release(tid)
					wg.Done()
				}}
				id++
			}
			e.AdmitBatch(ops)
			wg.Wait()
		}
	})
	p.out["qexec.admit_ns_per_txn"] = perBatch / batch
	return nil
}

// storage: point reads and writes on a loaded store, and the full-store
// checkpoint copy that set-up and recovery pay.
func (p *prober) storage() error {
	rows := int(p.w.rows)
	s := storage.NewStore()
	for r := 0; r < rows; r++ {
		s.Write(tx.MakeKey(0, uint64(r)), make([]byte, p.w.payload))
	}
	// A large odd stride visits rows in a cache-unfriendly order.
	const stride = 7919
	next := 0
	p.out["storage.read_ns"] = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			s.Read(tx.MakeKey(0, uint64(next%rows)))
			next += stride
		}
	})
	val := make([]byte, p.w.payload)
	p.out["storage.write_ns"] = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			s.Write(tx.MakeKey(0, uint64(next%rows)), val)
			next += stride
		}
	})
	best := forever
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		cp := s.Checkpoint()
		best = min(best, time.Since(t0))
		if len(cp) != rows {
			return fmt.Errorf("checkpoint holds %d of %d rows", len(cp), rows)
		}
	}
	p.out["storage.checkpoint_ms"] = best.Seconds() * 1e3
	return nil
}

// sequencer: a standalone leader over the channel transport; one batch of
// requests forwarded in, timed until the sealed batch arrives at a member.
func (p *prober) sequencer() error {
	members := nodeIDs(2)
	tr := network.NewChanTransport(append([]tx.NodeID{engine.LeaderNode}, members...), nil)
	defer tr.Close()
	leader := sequencer.NewLeader(engine.LeaderNode, tr, members,
		sequencer.Config{BatchSize: p.w.batch, Interval: time.Hour}, nil)
	leader.Start()
	defer leader.Stop()
	fe := sequencer.NewFrontend(members[0], engine.LeaderNode, tr)
	defer fe.Stop()
	proc := p.w.generator(p.seed).next()
	var failure error
	perBatch := p.timeOp(func(n int) {
		for b := 0; b < n && failure == nil; b++ {
			for i := 0; i < p.w.batch; i++ {
				if err := fe.Submit(tx.NewRequest(0, proc)); err != nil {
					failure = err
					return
				}
			}
			for _, m := range members {
				msg := <-tr.Recv(m)
				for msg.Type != network.MsgSeqDeliver {
					msg = <-tr.Recv(m)
				}
				if len(msg.Batch.Txns) != p.w.batch {
					failure = fmt.Errorf("sealed %d requests, submitted %d", len(msg.Batch.Txns), p.w.batch)
					return
				}
				sequencer.Ack(m, msg.From, tr, msg.Seq)
			}
		}
	})
	p.out["sequencer.seal_to_deliver_us"] = perBatch / 1e3
	return failure
}

// ycsbRequest is a representative wire request: a three-key CounterProc.
func ycsbRequest(id tx.TxnID) *tx.Request {
	keys := []tx.Key{tx.MakeKey(0, 17), tx.MakeKey(0, 400_003), tx.MakeKey(0, 900_001)}
	req := tx.NewRequest(id, &tx.CounterProc{Reads: keys, Writes: keys, Payload: 64})
	req.Client, req.ClientSeq, req.SubmitTime = 0, uint64(id), time.Unix(1_700_000_000, 0)
	return req
}

// gobCodec: what the request codec costs on every hop of the cluster's
// data plane.
func (p *prober) gobCodec() error {
	req := ycsbRequest(1)
	wire, err := req.GobEncode()
	if err != nil {
		return err
	}
	p.out["tx.gob_bytes_per_req"] = float64(len(wire))
	p.out["tx.gob_encode_ns"] = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			_, err = req.GobEncode()
		}
	})
	if err != nil {
		return err
	}
	var back tx.Request
	p.out["tx.gob_decode_ns"] = p.timeOp(func(n int) {
		for i := 0; i < n; i++ {
			err = back.GobDecode(wire)
		}
	})
	if err == nil && len(back.WriteSet()) != 3 {
		err = fmt.Errorf("decoded request has %d write keys, want 3", len(back.WriteSet()))
	}
	return err
}

// recordPush is the data plane's most common frame: one 64-byte record.
func recordPush(from, to tx.NodeID) network.Message {
	return network.Message{From: from, To: to, Type: network.MsgRecordPush, Txn: 7,
		Records: []network.Record{{Key: tx.MakeKey(0, 17), Value: make([]byte, 64)}}}
}

// network: one hop on the channel transport, bare and under the reliable
// layer; a round trip over a loopback TCP pair; and the real size of a
// sealed batch on a TCP link (the transport's own byte counter is the
// WireSize model, so the frame is gob-encoded here as the link does it).
func (p *prober) network() error {
	ids := nodeIDs(2)
	ch := network.NewChanTransport(ids, nil)
	p.out["network.chan_send_ns"] = p.timeOp(func(n int) { hop(ch, ch, n) })
	ch.Close()

	inner := network.NewChanTransport(ids, nil)
	rel := network.NewReliable(inner, ids)
	p.out["network.reliable_send_ns"] = p.timeOp(func(n int) { hop(rel, rel, n) })
	// Reliable.Close stops its pumps and then closes the channel
	// transport, whose Close first flushes every link queue into the
	// inboxes; with the pumps gone, acks and retransmits still queued can
	// fill an inbox and wedge the flush. Keep the inboxes drained until
	// Close closes them.
	for _, id := range ids {
		go func() {
			for range inner.Recv(id) {
			}
		}()
	}
	rel.Close()

	addrs := map[tx.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, err := network.NewTCPTransport(0, addrs)
	if err != nil {
		return err
	}
	defer t0.Close()
	t1, err := network.NewTCPTransport(1, addrs)
	if err != nil {
		return err
	}
	defer t1.Close()
	t0.SetAddr(1, t1.Addr())
	t1.SetAddr(0, t0.Addr())
	var failure error
	rtt := p.timeOp(func(n int) {
		for i := 0; i < n && failure == nil; i++ {
			if failure = t0.Send(recordPush(0, 1)); failure != nil {
				return
			}
			<-t1.Recv(1)
			if failure = t1.Send(recordPush(1, 0)); failure != nil {
				return
			}
			<-t0.Recv(0)
		}
	})
	if failure != nil {
		return failure
	}
	p.out["network.tcp_rtt_us"] = rtt / 1e3

	batch := &tx.Batch{Seq: 1}
	for i := 0; i < 25; i++ {
		batch.Txns = append(batch.Txns, ycsbRequest(tx.TxnID(i+1)))
	}
	deliver := network.Message{From: engine.LeaderNode, To: 0, Type: network.MsgSeqDeliver, Seq: 1, Batch: batch}
	// The second frame on an encoder is the steady state: type
	// descriptors travel once per connection.
	var wire bytes.Buffer
	enc := gob.NewEncoder(&wire)
	if err := enc.Encode(deliver); err != nil {
		return err
	}
	first := wire.Len()
	if err := enc.Encode(deliver); err != nil {
		return err
	}
	p.out["network.tcp_deliver_bytes_per_txn"] = float64(wire.Len()-first) / float64(len(batch.Txns))
	return nil
}

// hop sends n record pushes 0→1 through send and receives each from recv.
func hop(send, recv network.Transport, n int) {
	msg := recordPush(0, 1)
	inbox := recv.Recv(1)
	for i := 0; i < n; i++ {
		if send.Send(msg) != nil {
			return
		}
		<-inbox
	}
}

// journal: appending a delivered frame, with and without waiting for the
// group commit that gates its ack.
func (p *prober) journal() error {
	msg := recordPush(1, 0)
	for _, policy := range []network.SyncPolicy{network.SyncNone, network.SyncBatch} {
		dir, cleanup, err := p.scratchDir("journal-" + string(policy))
		if err != nil {
			return err
		}
		defer cleanup()
		j, err := network.OpenJournalWith(dir, network.JournalOpts{Policy: policy})
		if err != nil {
			return err
		}
		link := uint64(0)
		ns := p.timeOp(func(n int) {
			for i := 0; i < n; i++ {
				link++
				msg.Link = link
				j.Append(msg)
				if policy == network.SyncBatch {
					durable := make(chan struct{})
					j.AfterDurable(func() { close(durable) })
					<-durable
				}
			}
		})
		frames := j.Count()
		if err := j.Close(); err != nil {
			return err
		}
		if policy == network.SyncBatch {
			p.out["journal.append_durable_us"] = ns / 1e3
			continue
		}
		p.out["journal.append_ns"] = ns
		info, err := os.Stat(filepath.Join(dir, "journal.log"))
		if err != nil {
			return err
		}
		p.out["journal.bytes_per_frame"] = float64(info.Size()) / float64(frames)
	}
	return nil
}

// durable: a 100k-row checkpoint through the real filesystem.
func (p *prober) durable() error {
	const rows = 100_000
	dir, cleanup, err := p.scratchDir("durable")
	if err != nil {
		return err
	}
	defer cleanup()
	store, err := durable.Open(dir, nil)
	if err != nil {
		return err
	}
	cp := make(map[tx.Key][]byte, rows)
	for r := 0; r < rows; r++ {
		cp[tx.MakeKey(0, uint64(r))] = make([]byte, 64)
	}
	save, load := forever, forever
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		if err := store.Save(uint64(r+1), cp); err != nil {
			return err
		}
		save = min(save, time.Since(t0))
		var back map[tx.Key][]byte
		t0 = time.Now()
		_, ok, err := store.Load(&back)
		load = min(load, time.Since(t0))
		if err != nil || !ok || len(back) != rows {
			return fmt.Errorf("checkpoint load: ok=%v rows=%d err=%v", ok, len(back), err)
		}
	}
	p.out["durable.save_ms"], p.out["durable.load_ms"] = save.Seconds()*1e3, load.Seconds()*1e3
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var newest int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".ckpt") {
			newest = max(newest, info.Size())
		}
	}
	p.out["durable.bytes_per_row"] = float64(newest) / rows
	return nil
}

// Recovery probe shape: a durable cluster small enough to boot and replay
// in a few seconds.
const (
	recoverRows = 100_000
	recoverTxns = 5_000
	recoverTry  = 3
)

// recovery: a fresh fsync=batch cluster runs recoverTxns transactions;
// worker 2 is then SIGKILLed, loses every byte it had not fsynced, and is
// restarted. The time from restart until the whole cluster is settled
// again is harness.recover_s, and the state must equal the in-process
// twin's: nothing acknowledged may be lost.
func (p *prober) recovery() error {
	w := *workloadByName("cluster-durable")
	w.rows = recoverRows
	var lastErr error
	for try := 0; try < recoverTry; try++ {
		secs, frames, err := p.recoverOnce(&w)
		if err == nil {
			p.out["harness.recover_s"], p.out["harness.recover_frames"] = secs, float64(frames)
			return nil
		}
		if _, wrong := err.(*incorrectError); wrong {
			return err
		}
		lastErr = err // a stalled run proves nothing; try again
	}
	return fmt.Errorf("recovery probe stalled %d times: %w", recoverTry, lastErr)
}

// incorrectError marks a probe failure that is a wrong output, not a stall.
type incorrectError struct{ error }

func (p *prober) recoverOnce(w *workload) (seconds float64, frames int, err error) {
	sys := newClusterSystem(p.env, w, p.seed, false)
	defer sys.close()
	if _, err := sys.boot(p.rec, p.root); err != nil {
		return 0, 0, err
	}
	if err := sys.start(nil, 0, 0, recoverTxns); err != nil {
		return 0, 0, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		time.Sleep(pollEvery)
		pr, err := sys.poll()
		if err != nil {
			return 0, 0, err
		}
		if pr.done || pr.lost {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("run stuck at %d/%d", pr.completed, pr.submitted)
		}
	}

	const victim = 2
	if err := sys.c.KillWorker(victim); err != nil {
		return 0, 0, err
	}
	if err := sys.c.WipeWorkerStorage(victim); err != nil {
		return 0, 0, err
	}
	if frames, err = journalFrames(filepath.Join(sys.dir, fmt.Sprintf("node%d", victim)), p); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := sys.c.RestartWorker(victim); err != nil {
		return 0, 0, err
	}
	// Settled like a finished run — allowing for the clients whose
	// completions the first life of the cluster lost.
	for {
		if _, idle := sys.idle(); idle {
			break
		}
		if time.Since(t0) > 30*time.Second {
			return 0, 0, fmt.Errorf("cluster did not settle after the restart")
		}
		time.Sleep(pollEvery)
	}
	seconds = time.Since(t0).Seconds()

	digests, err := sys.c.Digests()
	if err != nil {
		return 0, 0, err
	}
	twin, err := harness.RunTwin(harness.TwinConfig{
		Workers: w.nodes, Policy: "hermes", Rows: w.rows, Payload: w.payload, BatchSize: w.batch,
	}, sys.spec)
	if err != nil {
		return 0, 0, err
	}
	for i := range digests {
		if i >= len(twin.Digests) || digests[i] != twin.Digests[i] {
			return 0, 0, &incorrectError{fmt.Errorf("after recovery node %d digest %+v differs from the twin's", i, digests[i])}
		}
	}
	return seconds, frames, nil
}

// journalFrames counts the intact frames in a dead worker's journal — what
// its restart will replay — by opening a copy, so the worker's own
// directory (and its incarnation counter) is left alone.
func journalFrames(nodeDir string, p *prober) (int, error) {
	dir, cleanup, err := p.scratchDir("journal-copy")
	if err != nil {
		return 0, err
	}
	defer cleanup()
	src, err := os.Open(filepath.Join(nodeDir, "journal.log"))
	if err != nil {
		return 0, err
	}
	defer src.Close()
	dst, err := os.Create(filepath.Join(dir, "journal.log"))
	if err != nil {
		return 0, err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return 0, err
	}
	if err := dst.Close(); err != nil {
		return 0, err
	}
	j, err := network.OpenJournal(dir)
	if err != nil {
		return 0, err
	}
	defer j.Close()
	return len(j.Recovered()), nil
}
