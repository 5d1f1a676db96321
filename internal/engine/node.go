package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/lock"
	"hermes/internal/network"
	"hermes/internal/qexec"
	"hermes/internal/router"
	"hermes/internal/storage"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// Node is one emulated machine: storage shard, deterministic lock
// manager, routing-policy replica, command log, and the scheduler /
// executor goroutines.
type Node struct {
	id      tx.NodeID
	cluster *Cluster
	store   *storage.Store
	// locks is the admission engine: the conservative lock manager in
	// "lock" mode, the queue-oriented executor in "queue" mode.
	locks  lock.Granter
	qx     *qexec.Executor // non-nil iff ExecMode == queue
	policy router.Policy
	cmdlog *storage.CommandLog

	batches chan *tx.Batch
	// execSem bounds concurrent transaction execution (nil = unbounded).
	execSem chan struct{}
	// scheduled is 1 + the sequence of the last batch fully handed to
	// the lock manager; quiescence checks compare it with the log.
	scheduled atomic.Uint64
	// refused describes the first batch the command log turned away
	// because it arrived ahead of the sequence the log wanted: the
	// total-order layer skipped or reordered a batch, and this node will
	// wait forever for the one in between. Quiescence diagnostics quote it.
	refused atomic.Pointer[string]

	mailMu sync.Mutex
	mail   map[tx.TxnID]*mailbox

	// roleGoroutines counts per-transaction role goroutines ever spawned.
	// Queue mode must keep this at zero: record waits are mailbox
	// continuations, not parked goroutines (the regression test keys on it).
	roleGoroutines atomic.Int64

	quit chan struct{}
	wg   sync.WaitGroup
}

func newNode(id tx.NodeID, c *Cluster, policy router.Policy) *Node {
	n := &Node{
		id:      id,
		cluster: c,
		store:   storage.NewStore(),
		policy:  policy,
		cmdlog:  storage.NewCommandLog(),
		batches: make(chan *tx.Batch, 1024),
		mail:    make(map[tx.TxnID]*mailbox),
		quit:    make(chan struct{}),
	}
	executors := c.cfg.Executors
	if executors == 0 {
		executors = 4
	}
	if c.cfg.ExecMode == ExecModeQueue {
		// Queue mode: the executor pool becomes the bucket-worker pool and
		// admission itself is the concurrency bound, so the semaphore is
		// disabled (roles with no admission wait run inline on the bucket
		// workers; the rest are short-lived goroutines gated by grants).
		workers := executors
		if workers < 0 {
			workers = 8
		}
		n.qx = qexec.New(qexec.Config{Workers: workers})
		n.locks = n.qx
	} else {
		n.locks = lock.NewManager()
		if executors > 0 {
			n.execSem = make(chan struct{}, executors)
		}
	}
	return n
}

// execSlot claims an executor slot (no-op when unbounded), giving up when
// the node shuts down so a crash cannot strand role goroutines behind a
// saturated pool; release with execDone. It reports whether the slot was
// claimed.
func (n *Node) execSlot() bool {
	if n.execSem == nil {
		return true
	}
	select {
	case n.execSem <- struct{}{}:
		return true
	case <-n.quit:
		return false
	}
}

func (n *Node) execDone() {
	if n.execSem != nil {
		<-n.execSem
	}
}

// refusal describes the first out-of-order batch this node refused, or
// returns "" if it never refused one.
func (n *Node) refusal() string {
	if r := n.refused.Load(); r != nil {
		return *r
	}
	return ""
}

// Store exposes the node's storage (tests, recovery, examples).
func (n *Node) Store() *storage.Store { return n.store }

// Scheduled reports 1 + the sequence of the last batch this node's
// scheduler fully handed to the lock manager; crash schedules use it to
// trigger kills at deterministic points in the batch stream.
func (n *Node) Scheduled() uint64 { return n.scheduled.Load() }

// Policy exposes the node's routing replica (tests, stats).
func (n *Node) Policy() router.Policy { return n.policy }

// CommandLog exposes the node's input log (recovery drills).
func (n *Node) CommandLog() *storage.CommandLog { return n.cmdlog }

func (n *Node) start() {
	n.wg.Add(2)
	go n.recvLoop()
	go n.schedLoop()
}

func (n *Node) stop() {
	select {
	case <-n.quit:
	default:
		close(n.quit)
	}
}

func (n *Node) wait() {
	n.wg.Wait()
	if n.qx != nil {
		// Joining the bucket workers also joins any inline role still
		// running on one of them; entries left queued are abandoned, the
		// same semantics as a crashed node's lock table.
		n.qx.Close()
	}
}

// recvLoop dispatches transport messages: totally ordered batches go to
// the scheduler queue (and the command log); per-transaction record
// traffic goes to mailboxes.
func (n *Node) recvLoop() {
	defer n.wg.Done()
	inbox := n.cluster.tr.Recv(n.id)
	for {
		select {
		case <-n.quit:
			return
		case m, ok := <-inbox:
			if !ok {
				return
			}
			switch m.Type {
			case network.MsgSeqDeliver:
				if m.Batch == nil {
					continue
				}
				if err := n.cmdlog.Append(m.Batch); err != nil {
					// A batch below the wanted sequence is a re-delivery (a
					// promoted leader replays its retained log) and is dropped
					// silently. One above it means the total-order layer is
					// broken; the refusal is kept for the quiescence report.
					if want := n.cmdlog.Next(); m.Batch.Seq > want {
						msg := fmt.Sprintf("node %d refused batch %d, wanted %d", n.id, m.Batch.Seq, want)
						n.refused.CompareAndSwap(nil, &msg)
					}
					continue
				}
				if n.cluster.tracer.Enabled() {
					for _, req := range m.Batch.Txns {
						n.cluster.tracer.Emit(n.id, req.ID, telemetry.PhaseBatched, int64(m.Batch.Seq))
					}
				}
				select {
				case n.batches <- m.Batch:
				case <-n.quit:
					return
				}
			case network.MsgSeqEpoch:
				n.cluster.noteLeader(m.From, m.Epoch)
			case network.MsgTxnDone:
				// A committer in another process finished a transaction
				// submitted through this node's front-end; Seq is the
				// ClientSeq it was stamped with. At-least-once delivery: a
				// duplicate finds no waiter.
				n.cluster.release(clientKey{n.id, m.Seq})
			case network.MsgRecordPush, network.MsgReadBroadcast, network.MsgWriteBack, network.MsgMigrationChunk:
				n.mailboxFor(m.Txn).put(m.Records)
			}
		}
	}
}

// schedLoop is the deterministic scheduler (Fig. 4(b)): it routes each
// batch with the node's policy replica, acquires locks for every route in
// total order (conservative ordered locking), and hands role jobs to
// executor goroutines.
func (n *Node) schedLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.quit:
			return
		case b, ok := <-n.batches:
			if !ok {
				return
			}
			arrival := time.Now()
			n.sealed(b)
			plan := router.BuildPlan(n.policy, b)
			// Routing cost (§3.2.4): how much scheduler time the batch
			// analysis itself consumed, before any locking or execution.
			n.cluster.collector.RecordRouting(len(b.Txns), time.Since(arrival))
			if n.qx != nil {
				n.scheduleQueue(plan, arrival)
			} else {
				for _, rt := range plan.Routes {
					n.schedule(rt, arrival)
				}
			}
			n.scheduled.Store(b.Seq + 1)
		}
	}
}

// sealed tells the front-ends hosted here that b's requests are in the
// total order, which empties a session front-end's retry queue. Every
// hosted node says so and a replayed batch says so again: the ack is
// idempotent. The node a request was submitted through also emits the two
// cluster-scope trace events that only the sealed batch can label with a
// transaction ID — when the client submitted, and that the ID was assigned.
func (n *Node) sealed(b *tx.Batch) {
	c := n.cluster
	for _, req := range b.Txns {
		if fe := c.fes[req.Client]; fe != nil {
			fe.Sequenced(req)
		}
		if req.Client == n.id && req.ClientSeq != 0 && c.tracer.Enabled() {
			if !req.SubmitTime.IsZero() {
				c.tracer.EmitAt(req.SubmitTime, telemetry.ClusterNode, req.ID, telemetry.PhaseEnqueued, 0)
			}
			c.tracer.Emit(telemetry.ClusterNode, req.ID, telemetry.PhaseSequenced, 0)
		}
	}
}

// answer releases the client of a finished transaction. It is called once
// per execution of the transaction, by its committing node: the client's
// waiter is closed directly when the front-end it submitted through is
// hosted in this process, and by a MsgTxnDone carrying the request's
// ClientSeq to the process that hosts it otherwise. The notice rides the
// reliable layer; a transaction executed again (replay after a restart)
// answers again, and the second answer finds no waiter.
func (n *Node) answer(req *tx.Request) {
	c := n.cluster
	switch {
	case req.ClientSeq == 0:
		// Not submitted through a front-end (a hand-built batch): nobody
		// waits.
	case c.fes[req.Client] != nil:
		c.release(clientKey{req.Client, req.ClientSeq})
	default:
		_ = c.tr.Send(network.Message{
			From: n.id, To: req.Client, Type: network.MsgTxnDone,
			Txn: req.ID, Seq: req.ClientSeq,
		})
	}
}

// schedule computes this node's role in the route, acquires the locks the
// role needs (in total order), and spawns the role job.
func (n *Node) schedule(rt *router.Route, arrival time.Time) {
	if rt.Mode == router.Provision {
		// The membership change itself took effect inside BuildPlan on
		// every replica; acknowledge the client here. Any attached
		// eviction migrations still execute below under locks.
		if n.isCommitter(rt) {
			n.answer(rt.Txn)
		}
		if len(rt.Migrations) == 0 {
			return
		}
	}

	role := n.roleFor(rt)
	if !role.involved() {
		return
	}
	if n.cluster.tracer.Enabled() {
		master := int64(-1)
		if rt.Mode == router.SingleMaster {
			master = int64(rt.Master)
		}
		n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseRouted, master)
	}
	grant := n.locks.Acquire(rt.Txn.ID, role.shared, role.excl)
	n.roleGoroutines.Add(1)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.run(rt, role, grant, arrival, time.Time{}, 0)
	}()
}

// RoleGoroutines reports how many per-transaction role goroutines this
// node has ever spawned (zero in queue mode).
func (n *Node) RoleGoroutines() int64 { return n.roleGoroutines.Load() }

// scheduleQueue is the queue-mode scheduler: it derives every role for the
// batch first (planning), then admits the whole batch into the per-key
// queues in one call. Every role runs *inline* on the bucket worker that
// completes its rendezvous — no goroutine spawn, no channel handoff. Roles
// that expect inbound records split at the mailbox instead of parking: the
// rendezvous worker runs Phase 1 and registers a continuation that the
// record receiver re-submits to the bucket pool when the last record
// lands, so a mailbox wait never stalls a bucket worker and never holds a
// goroutine either.
func (n *Node) scheduleQueue(plan *router.Plan, arrival time.Time) {
	planStart := time.Now()
	type job struct {
		rt   *router.Route
		role *role
	}
	jobs := make([]job, 0, len(plan.Routes))
	ops := make([]*qexec.Op, 0, len(plan.Routes))
	for _, rt := range plan.Routes {
		if rt.Mode == router.Provision {
			if n.isCommitter(rt) {
				n.answer(rt.Txn)
			}
			if len(rt.Migrations) == 0 {
				continue
			}
		}
		role := n.roleFor(rt)
		if !role.involved() {
			continue
		}
		if n.cluster.tracer.Enabled() {
			master := int64(-1)
			if rt.Mode == router.SingleMaster {
				master = int64(rt.Master)
			}
			n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseRouted, master)
		}
		jobs = append(jobs, job{rt: rt, role: role})
		ops = append(ops, &qexec.Op{ID: rt.Txn.ID, Shared: role.shared, Excl: role.excl})
	}
	planDur := time.Since(planStart)
	var planShare time.Duration
	if len(ops) > 0 {
		planShare = planDur / time.Duration(len(ops))
		n.cluster.collector.RecordQueuePlan(len(ops), planDur)
	}
	admitted := time.Now()
	for i := range jobs {
		rt, role := jobs[i].rt, jobs[i].role
		// Inline runs are joined via qx.Close() in wait(), not the node
		// WaitGroup: if the node crashes before the rendezvous, the closure
		// simply never fires.
		if role.expectRecords > 0 {
			ops[i].OnReady = func() {
				n.runQueuedSplit(rt, role, arrival, admitted, planShare)
			}
		} else {
			ops[i].OnReady = func() {
				n.run(rt, role, nil, arrival, admitted, planShare)
			}
		}
	}
	_ = n.qx.AdmitBatch(ops)
}

// isCommitter reports whether this node is the one that reports
// completion to the client: the master for single-master routes, the
// lowest writer for multi-master, the first active node for provisioning.
func (n *Node) isCommitter(rt *router.Route) bool {
	switch rt.Mode {
	case router.SingleMaster:
		return rt.Master == n.id
	case router.MultiMaster:
		return len(rt.Writers) > 0 && rt.Writers[0] == n.id
	case router.Provision:
		a := n.policy.Placement().Active()
		return len(a) > 0 && a[0] == n.id
	}
	return false
}

// role captures everything a node must do for one route.
type role struct {
	// lock sets on this node.
	shared, excl []tx.Key

	// master / writer duties.
	isMaster bool // single-master execution site
	isWriter bool // multi-master executor
	// expectRecords is how many records must arrive before execution or
	// completion (pushes at the master/writer, write-backs and eviction
	// arrivals at owners).
	expectRecords int

	// pushTo maps destination node -> keys this node must push there
	// (remote reads and outbound migrations).
	pushTo map[tx.NodeID][]tx.Key
	// deleteAfterPush lists keys leaving this node (migration sources).
	deleteAfterPush []tx.Key
	// insertArrivals lists keys arriving into this node's storage
	// (migration destinations), excluding those handled by the master
	// execution path.
	insertArrivals []tx.Key
	// writeBackApply lists written keys this node owns that the master
	// will send back after execution.
	writeBackApply []tx.Key
	// outMigrations lists migrations whose source is this node and whose
	// record must carry post-execution values (master-side outbound
	// moves, e.g. T-Part's return-home of a key it just wrote).
	outMigrations []router.Migration
}

func (r *role) involved() bool {
	return len(r.shared)+len(r.excl) > 0 || r.isMaster || r.isWriter ||
		len(r.pushTo) > 0 || len(r.insertArrivals) > 0
}

// roleFor derives this node's role from a route. Every node derives roles
// from the identical plan, so the role sets agree globally.
func (n *Node) roleFor(rt *router.Route) *role {
	r := &role{pushTo: map[tx.NodeID][]tx.Key{}}
	req := rt.Txn
	writes := req.WriteSet()
	access := req.AccessSet()

	writeBack := map[tx.Key]bool{}
	for _, k := range rt.WriteBack {
		writeBack[k] = true
	}

	switch rt.Mode {
	case router.MultiMaster:
		for _, w := range rt.Writers {
			if w == n.id {
				r.isWriter = true
			}
		}
		for _, k := range access {
			owner := rt.Owners.Get(k)
			isWrite := tx.ContainsKey(writes, k)
			if owner == n.id {
				if isWrite {
					r.excl = append(r.excl, k)
				} else {
					r.shared = append(r.shared, k)
				}
				// Owners broadcast their read-set fragments to writers.
				if tx.ContainsKey(req.ReadSet(), k) {
					for _, w := range rt.Writers {
						if w != n.id {
							r.pushTo[w] = append(r.pushTo[w], k)
						}
					}
				}
			}
			if r.isWriter && owner != n.id && tx.ContainsKey(req.ReadSet(), k) {
				r.expectRecords++
			}
		}

	case router.SingleMaster, router.Provision:
		master := rt.Master
		r.isMaster = master == n.id && rt.Mode == router.SingleMaster
		// A key may appear in more than one migration of the same route
		// (e.g. T-Part moves a record in for execution and back home at
		// batch end). Classify per migration, from this node's viewpoint.
		outOfHere := map[tx.Key]bool{} // pre-exec departures from this node
		for _, m := range rt.Migrations {
			if m.From == m.To {
				continue
			}
			inAccess := tx.ContainsKey(access, m.Key)
			if m.From == n.id {
				if n.id == master {
					// Outbound from the execution site: pushed after
					// execution so it carries post-execution values.
					r.excl = appendKeyOnce(r.excl, m.Key)
					r.outMigrations = append(r.outMigrations, m)
				} else {
					outOfHere[m.Key] = true
					r.excl = appendKeyOnce(r.excl, m.Key)
					r.pushTo[m.To] = append(r.pushTo[m.To], m.Key)
					r.deleteAfterPush = append(r.deleteAfterPush, m.Key)
					// The master still needs the value if the key is part
					// of the transaction and the move itself isn't toward
					// the master.
					if inAccess && m.To != master {
						r.pushTo[master] = append(r.pushTo[master], m.Key)
					}
				}
			}
			if m.To == n.id && m.From != n.id {
				if n.id == master && inAccess {
					// Inbound data-fusion migration at the execution
					// site: the access loop below counts the expected
					// record and runMaster inserts it.
					r.excl = appendKeyOnce(r.excl, m.Key)
				} else {
					// Arrival outside the execution path (eviction home,
					// cold-chunk destination, return-home target).
					r.excl = appendKeyOnce(r.excl, m.Key)
					r.insertArrivals = append(r.insertArrivals, m.Key)
					r.expectRecords++
				}
			}
		}
		// Access-set keys. Keys absent from Owners take no part in the
		// route (e.g. chunk keys a cold migration skipped because they
		// are fusion-tracked, §3.3).
		for _, k := range access {
			owner, part := rt.Owners.Lookup(k)
			if !part {
				continue
			}
			isWrite := tx.ContainsKey(writes, k)
			switch {
			case owner == n.id:
				if outOfHere[k] {
					break // push/delete already arranged above
				}
				if isWrite {
					r.excl = appendKeyOnce(r.excl, k)
					if n.id != master && writeBack[k] {
						// Send current value to the master, then apply
						// the write-back it returns.
						r.pushTo[master] = append(r.pushTo[master], k)
						r.writeBackApply = append(r.writeBackApply, k)
						r.expectRecords++
					}
				} else {
					r.shared = append(r.shared, k)
					if n.id != master {
						r.pushTo[master] = append(r.pushTo[master], k)
					}
				}
			case n.id == master:
				// The record arrives from its owner (directly or via an
				// inbound migration push).
				r.expectRecords++
			}
		}
	}
	r.shared = tx.NormalizeKeys(r.shared)
	r.excl = tx.NormalizeKeys(r.excl)
	// A key needed both shared and exclusive collapses to exclusive
	// inside the lock manager; remove duplicates from shared here so the
	// accounting in expectRecords stays exact.
	r.shared = subtractKeys(r.shared, r.excl)
	return r
}

func appendKeyOnce(ks []tx.Key, k tx.Key) []tx.Key {
	for _, e := range ks {
		if e == k {
			return ks
		}
	}
	return append(ks, k)
}

func subtractKeys(a, b []tx.Key) []tx.Key {
	out := a[:0]
	for _, k := range a {
		if !tx.ContainsKey(b, k) {
			out = append(out, k)
		}
	}
	return out
}

// mailboxFor returns (creating on demand) the mailbox for a transaction.
func (n *Node) mailboxFor(id tx.TxnID) *mailbox {
	n.mailMu.Lock()
	defer n.mailMu.Unlock()
	mb, ok := n.mail[id]
	if !ok {
		mb = newMailbox()
		n.mail[id] = mb
	}
	return mb
}

func (n *Node) dropMailbox(id tx.TxnID) {
	n.mailMu.Lock()
	delete(n.mail, id)
	n.mailMu.Unlock()
}

// mailbox accumulates records pushed to this node for one transaction.
// Consumers either block on waitFor (lock mode's waiting goroutine) or
// register a continuation with subscribe (queue mode's split path).
type mailbox struct {
	mu     sync.Mutex
	recs   map[tx.Key][]byte
	notify chan struct{}
	// want/cont are the registered continuation: when at least want
	// records have accumulated, put fires cont once with the record map.
	want int
	cont func(map[tx.Key][]byte)
}

func newMailbox() *mailbox {
	return &mailbox{recs: map[tx.Key][]byte{}, notify: make(chan struct{}, 1)}
}

func (m *mailbox) put(records []network.Record) {
	m.mu.Lock()
	for _, r := range records {
		m.recs[r.Key] = r.Value
	}
	var fire func(map[tx.Key][]byte)
	var out map[tx.Key][]byte
	if m.cont != nil && len(m.recs) >= m.want {
		fire, out = m.cont, m.recs
		m.cont = nil
	}
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
	if fire != nil {
		// Outside the mutex: the continuation re-submits into the bucket
		// pool and must not deadlock against a concurrent put.
		fire(out)
	}
}

// subscribe registers fn to fire once at least want records have arrived.
// If they already have, it returns (records, true) and registers nothing —
// the caller runs the continuation itself. fn fires on the goroutine that
// delivers the final record.
func (m *mailbox) subscribe(want int, fn func(map[tx.Key][]byte)) (map[tx.Key][]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.recs) >= want {
		return m.recs, true
	}
	m.want, m.cont = want, fn
	return nil, false
}

// waitFor blocks until at least want records have arrived (or quit
// closes) and returns the record map.
func (m *mailbox) waitFor(want int, quit <-chan struct{}) map[tx.Key][]byte {
	for {
		m.mu.Lock()
		if len(m.recs) >= want {
			out := m.recs
			m.mu.Unlock()
			return out
		}
		m.mu.Unlock()
		select {
		case <-m.notify:
		case <-quit:
			return nil
		}
	}
}
