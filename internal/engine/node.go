package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/network"
	"hermes/internal/qexec"
	"hermes/internal/router"
	"hermes/internal/storage"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// Node is one emulated machine: storage shard, admission engine,
// routing-policy replica, and the scheduler / executor goroutines.
type Node struct {
	id      tx.NodeID
	cluster *Cluster
	store   *storage.Store
	// qx is the admission engine: per-key operation queues planned from
	// each sealed batch and drained in total order by one bucket worker.
	qx     *qexec.Executor
	policy router.Policy

	batches chan *tx.Batch
	// execSem bounds how many roles handed off by dispatch run at once.
	execSem chan struct{}
	// scheduled is 1 + the sequence of the last batch fully admitted;
	// quiescence checks compare it with the sealed stream.
	scheduled atomic.Uint64
	// refused describes the first batch recvLoop turned away because it
	// arrived ahead of the sequence it wanted: the total-order layer
	// skipped or reordered a batch, and this node will wait forever for
	// the one in between. Quiescence diagnostics quote it.
	refused atomic.Pointer[string]

	mailMu sync.Mutex
	mail   map[tx.TxnID]*mailbox
	// admitted is 1 + the highest transaction ID the scheduler has
	// admitted. A record for a transaction below it that qexec no longer
	// holds arrived after the transaction finished here (a restarted
	// sender's replay) and is dropped rather than filed in a mailbox
	// nothing would ever collect.
	admitted atomic.Uint64

	// out gathers the record pushes this node's roles produce until the
	// bucket-worker chunk (or dispatch goroutine) that produced them ends;
	// flushPushes then sends one MsgRecordPush per destination.
	out outbox

	// The scheduler goroutine's scratch, reused from batch to batch: where
	// roleFor builds a role, the batch's planned roles, its admission ops
	// and its remotely answered transactions. Everything that outlives admit is
	// copied into the batch's arena.
	sc      roleScratch
	planned []plannedRole
	ops     []qexec.Op
	opPtrs  []*qexec.Op
	remote  []tx.TxnID

	// doneMu guards done, which maps each transaction this node commits
	// for a client in another process to its batch's completion group
	// (see answer).
	doneMu sync.Mutex
	done   map[tx.TxnID]*doneGroup

	// roleGoroutines counts roles dispatch ever handed to a goroutine. It
	// stays at zero while the cost model is zero: record waits are mailbox
	// continuations, not parked goroutines (the regression test keys on it).
	roleGoroutines atomic.Int64
	// migrating is this node's share of the in-flight migration gauge. A
	// role abandoned by a crash never reaches finish, so wait hands back
	// whatever is left.
	migrating atomic.Int64

	quit chan struct{}
	wg   sync.WaitGroup
}

func newNode(id tx.NodeID, c *Cluster, policy router.Policy) *Node {
	n := &Node{
		id:      id,
		cluster: c,
		store:   storage.NewStore(),
		policy:  policy,
		batches: make(chan *tx.Batch, 1024),
		mail:    make(map[tx.TxnID]*mailbox),
		done:    make(map[tx.TxnID]*doneGroup),
		quit:    make(chan struct{}),
	}
	executors := c.cfg.Executors
	if executors == 0 {
		executors = 4
	}
	n.execSem = make(chan struct{}, executors)
	n.qx = qexec.New(qexec.Config{AfterChunk: n.flushPushes})
	return n
}

// dispatch runs j — an admitted role, or the rest of one whose records
// have arrived — for the bucket worker that calls it. This is the one
// place the cost model picks where a role runs. At zero cost nothing in a
// role sleeps, so it runs inline on the bucket worker: no goroutine, no
// hand-off, and its record pushes leave with the rest of the worker's
// chunk. A role that will sleep (ExecCost, StorageDelay) would stall
// every key queue of the node for as long as it sleeps, so it goes to a
// goroutine that holds one of the Executors slots while it runs and
// flushes the outbox when it returns. Waiting for records holds no slot,
// so the bound cannot deadlock.
func (n *Node) dispatch(j *job) {
	if cfg := n.cluster.cfg; cfg.ExecCost == 0 && cfg.StorageDelay == 0 {
		n.step(j)
		return
	}
	n.roleGoroutines.Add(1)
	n.wg.Add(1) // from the bucket worker: wait joins it before wg.Wait
	go func() {
		defer n.wg.Done()
		// Give up on shutdown so a crash cannot strand a role behind a
		// saturated pool.
		select {
		case n.execSem <- struct{}{}:
			defer func() { <-n.execSem }()
		case <-n.quit:
			return
		}
		n.step(j)
		n.flushPushes()
	}()
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
// scheduler fully admitted; crash schedules use it to
// trigger kills at deterministic points in the batch stream.
func (n *Node) Scheduled() uint64 { return n.scheduled.Load() }

// Policy exposes the node's routing replica (tests, stats).
func (n *Node) Policy() router.Policy { return n.policy }

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
	// The bucket worker goes first: joining it also joins any inline role
	// still running on it, and after it no dispatch can start another
	// goroutine, so wg.Wait below cannot race a wg.Add. Entries left queued
	// are abandoned, and so is their share of the migration gauge.
	n.qx.Close()
	n.wg.Wait()
	n.cluster.collector.AddMigrationsInFlight(-n.migrating.Swap(0))
}

// recvLoop dispatches transport messages: totally ordered batches go to
// the scheduler queue, strictly in sequence; per-transaction record
// traffic goes to mailboxes.
func (n *Node) recvLoop() {
	defer n.wg.Done()
	inbox := n.cluster.tr.Recv(n.id)
	// want is the sequence of the next batch to schedule. It starts at the
	// scheduler cursor, which restore sets to the checkpoint's cut.
	want := n.scheduled.Load()
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
				if m.Batch.Seq != want {
					// A batch below the wanted sequence is a re-delivery (a
					// promoted leader replays its retained log) and is dropped
					// silently. One above it means the total-order layer is
					// broken; the refusal is kept for the quiescence report.
					if m.Batch.Seq > want {
						msg := fmt.Sprintf("node %d refused batch %d, wanted %d", n.id, m.Batch.Seq, want)
						n.refused.CompareAndSwap(nil, &msg)
					}
					continue
				}
				want++
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
				// A committer in another process finished transactions
				// submitted through this node's front-end; the payload lists
				// the ClientSeqs they were stamped with. At-least-once
				// delivery: a duplicate list finds no waiters.
				seqs, _ := network.ClientSeqs(m.Payload)
				for _, seq := range seqs {
					n.cluster.release(clientKey{n.id, seq})
				}
			case network.MsgRecordPush, network.MsgReadBroadcast, network.MsgWriteBack, network.MsgMigrationChunk:
				n.putRecords(&m)
			}
		}
	}
}

// schedLoop is the deterministic scheduler (Fig. 4(b)): it routes each
// batch with the node's policy replica and admits every route's role into
// the per-key queues in total order, which grants each key in the same
// serial order as Calvin's conservative ordered locking.
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
			n.admit(plan, arrival)
			hi := n.admitted.Load()
			for _, req := range b.Txns {
				hi = max(hi, uint64(req.ID)+1)
			}
			n.admitted.Store(hi)
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
// per execution of the transaction, aborted or not, by its committing
// node: the client's waiter is closed directly when the front-end it
// submitted through is hosted in this process. Otherwise the answer waits
// in the transaction's completion group: admit opens one per batch for the
// transactions this node commits for clients in other processes, and when
// the last of them finishes, sendDone sends one MsgTxnDone per client node
// listing them all. An answer with no group (a provisioning route, or a
// second execution of a transaction whose group has closed) sends a list
// of one. Notices ride the reliable layer; one that arrives again finds
// no waiter.
func (n *Node) answer(req *tx.Request) {
	c := n.cluster
	switch {
	case req.ClientSeq == 0:
		// Not submitted through a front-end (a hand-built batch): nobody
		// waits.
	case c.fes[req.Client] != nil:
		c.release(clientKey{req.Client, req.ClientSeq})
	default:
		n.doneMu.Lock()
		g := n.done[req.ID]
		if g == nil {
			n.doneMu.Unlock()
			n.sendDone(req.Client, []uint64{req.ClientSeq})
			return
		}
		delete(n.done, req.ID)
		g.add(req.Client, req.ClientSeq)
		g.left--
		last := g.left == 0
		n.doneMu.Unlock()
		if last {
			for _, cs := range g.clients {
				slices.Sort(cs.seqs)
				n.sendDone(cs.client, cs.seqs)
			}
		}
	}
}

// remoteAnswer reports whether this node answers rt's client with a
// MsgTxnDone once rt finishes: it commits rt, a front-end stamped it, and
// that front-end lives in another process.
func (n *Node) remoteAnswer(rt *router.Route) bool {
	req := rt.Txn
	return req.ClientSeq != 0 && n.cluster.fes[req.Client] == nil &&
		rt.Mode != router.Provision && n.isCommitter(rt)
}

// sendDone tells client that the transactions it stamped with seqs
// (ascending) have finished. It is the only sender of MsgTxnDone.
func (n *Node) sendDone(client tx.NodeID, seqs []uint64) {
	_ = n.cluster.tr.Send(network.Message{
		From: n.id, To: client, Type: network.MsgTxnDone,
		Payload: network.AppendClientSeqs(nil, seqs),
	})
}

// doneGroup is one batch's completion group at its committer: left counts
// its transactions still unfinished, clients holds the finished ones'
// ClientSeqs per client node.
type doneGroup struct {
	left    int
	clients []clientSeqs
}

type clientSeqs struct {
	client tx.NodeID
	seqs   []uint64
}

func (g *doneGroup) add(client tx.NodeID, seq uint64) {
	for i := range g.clients {
		if g.clients[i].client == client {
			g.clients[i].seqs = append(g.clients[i].seqs, seq)
			return
		}
	}
	g.clients = append(g.clients, clientSeqs{client: client, seqs: []uint64{seq}})
}

// plannedRole is one route this node takes part in, with its role, while
// admit plans the batch.
type plannedRole struct {
	rt   *router.Route
	role role
}

// admit plans the batch — it derives this node's role in every route —
// and then admits the whole batch into the per-key queues in one call.
// The bucket worker hands a role to dispatch once it has granted the
// role's last key. Roles that expect inbound records split at the mailbox instead
// of parking (see run), so a record wait never stalls a bucket worker and
// never holds a goroutine either. Everything a role carries past
// admission is carved from one arena per batch.
func (n *Node) admit(plan *router.Plan, arrival time.Time) {
	planStart := time.Now()
	a := newBatchArena(n, plan)
	planned := n.planned[:0]
	remote := n.remote[:0] // committed here for clients in other processes
	for _, rt := range plan.Routes {
		if rt.Mode == router.Provision {
			// The membership change itself took effect inside BuildPlan on
			// every replica; acknowledge the client here. Any attached
			// eviction migrations are still admitted below.
			if n.isCommitter(rt) {
				n.answer(rt.Txn)
			}
			if len(rt.Migrations) == 0 {
				continue
			}
		}
		role := n.roleFor(rt, &n.sc, a)
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
		planned = append(planned, plannedRole{rt: rt, role: role})
		if n.remoteAnswer(rt) {
			remote = append(remote, rt.Txn.ID)
		}
	}
	jobs := a.jobsFor(planned)
	a.arrival = arrival
	planDur := time.Since(planStart)
	if len(jobs) > 0 {
		a.planShare = planDur / time.Duration(len(jobs))
		n.cluster.collector.RecordQueuePlan(len(jobs), planDur)
	}
	a.admitted = time.Now()
	ops, ptrs := n.ops[:0], n.opPtrs[:0]
	for i := range jobs {
		j := &jobs[i]
		// If the node crashes before the last key is granted, the
		// closure simply never fires.
		j.step = func() { n.dispatch(j) }
		ops = append(ops, qexec.Op{ID: j.rt.Txn.ID, Shared: j.role.shared, Excl: j.role.excl, OnReady: j.step})
	}
	for i := range ops {
		ptrs = append(ptrs, &ops[i])
	}
	// The group is complete before AdmitBatch lets any member finish.
	if len(remote) > 0 {
		g := &doneGroup{left: len(remote)}
		n.doneMu.Lock()
		for _, id := range remote {
			n.done[id] = g
		}
		n.doneMu.Unlock()
	}
	n.qx.AdmitBatch(ptrs)
	// AdmitBatch keeps none of ops; clearing the scratch lets the batch's
	// arena go once its roles finish.
	clear(planned)
	clear(ops)
	clear(ptrs)
	n.planned, n.ops, n.opPtrs, n.remote = planned[:0], ops[:0], ptrs[:0], remote[:0]
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

// role captures everything a node must do for one route. Its slices are
// carved from the batch's arena.
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

	// pushTo lists, per destination node in order of first use, the keys
	// this node must push there (remote reads and outbound migrations).
	pushTo []push
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

// push is one destination of a role's record pushes.
type push struct {
	to   tx.NodeID
	keys []tx.Key
}

func (r *role) involved() bool {
	return len(r.shared)+len(r.excl) > 0 || r.isMaster || r.isWriter ||
		len(r.pushTo) > 0 || len(r.insertArrivals) > 0
}

// roleScratch is where roleFor builds a role before copying it into the
// batch's arena; its slices keep their capacity from route to route.
type roleScratch struct {
	shared, excl, deleteAfterPush, insertArrivals, writeBackApply []tx.Key
	// pushes holds each (destination, key) push in the order it arose.
	pushes []destKey
	// departing lists keys this node pushes away before execution.
	departing     []tx.Key
	outMigrations []router.Migration
}

type destKey struct {
	to tx.NodeID
	k  tx.Key
}

func (sc *roleScratch) reset() {
	sc.shared, sc.excl = sc.shared[:0], sc.excl[:0]
	sc.deleteAfterPush, sc.insertArrivals, sc.writeBackApply = sc.deleteAfterPush[:0], sc.insertArrivals[:0], sc.writeBackApply[:0]
	sc.pushes, sc.departing, sc.outMigrations = sc.pushes[:0], sc.departing[:0], sc.outMigrations[:0]
}

func (sc *roleScratch) pushTo(to tx.NodeID, k tx.Key) {
	sc.pushes = append(sc.pushes, destKey{to, k})
}

// roleFor derives this node's role from a route, building it in sc and
// carving the result from a. Every node derives roles from the identical
// plan, so the role sets agree globally.
func (n *Node) roleFor(rt *router.Route, sc *roleScratch, a *batchArena) role {
	var r role
	sc.reset()
	req := rt.Txn
	writes := req.WriteSet()
	access := req.AccessSet()

	switch rt.Mode {
	case router.MultiMaster:
		r.isWriter = slices.Contains(rt.Writers, n.id)
		for _, k := range access {
			owner := rt.Owners.Get(k)
			isWrite := tx.ContainsKey(writes, k)
			if owner == n.id {
				if isWrite {
					sc.excl = append(sc.excl, k)
				} else {
					sc.shared = append(sc.shared, k)
				}
				// Owners broadcast their read-set fragments to writers.
				if tx.ContainsKey(req.ReadSet(), k) {
					for _, w := range rt.Writers {
						if w != n.id {
							sc.pushTo(w, k)
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
		for _, m := range rt.Migrations {
			if m.From == m.To {
				continue
			}
			inAccess := tx.ContainsKey(access, m.Key)
			if m.From == n.id {
				if n.id == master {
					// Outbound from the execution site: pushed after
					// execution so it carries post-execution values.
					sc.excl = append(sc.excl, m.Key)
					sc.outMigrations = append(sc.outMigrations, m)
				} else {
					sc.departing = append(sc.departing, m.Key)
					sc.excl = append(sc.excl, m.Key)
					sc.pushTo(m.To, m.Key)
					sc.deleteAfterPush = append(sc.deleteAfterPush, m.Key)
					// The master still needs the value if the key is part
					// of the transaction and the move itself isn't toward
					// the master.
					if inAccess && m.To != master {
						sc.pushTo(master, m.Key)
					}
				}
			}
			if m.To == n.id && m.From != n.id {
				if n.id == master && inAccess {
					// Inbound data-fusion migration at the execution
					// site: the access loop below counts the expected
					// record and runMaster inserts it.
					sc.excl = append(sc.excl, m.Key)
				} else {
					// Arrival outside the execution path (eviction home,
					// cold-chunk destination, return-home target).
					sc.excl = append(sc.excl, m.Key)
					sc.insertArrivals = append(sc.insertArrivals, m.Key)
					r.expectRecords++
				}
			}
		}
		// Access-set keys. Keys absent from Owners take no part in the
		// route (e.g. chunk keys a cold migration skipped because they
		// are fusion-tracked, §3.3).
		slices.Sort(sc.departing)
		for _, k := range access {
			owner, part := rt.Owners.Lookup(k)
			if !part {
				continue
			}
			isWrite := tx.ContainsKey(writes, k)
			switch {
			case owner == n.id:
				if tx.ContainsKey(sc.departing, k) {
					break // push/delete already arranged above
				}
				if isWrite {
					sc.excl = append(sc.excl, k)
					if n.id != master && slices.Contains(rt.WriteBack, k) {
						// Send current value to the master, then apply
						// the write-back it returns.
						sc.pushTo(master, k)
						sc.writeBackApply = append(sc.writeBackApply, k)
						r.expectRecords++
					}
				} else {
					sc.shared = append(sc.shared, k)
					if n.id != master {
						sc.pushTo(master, k)
					}
				}
			case n.id == master:
				// The record arrives from its owner (directly or via an
				// inbound migration push).
				r.expectRecords++
			}
		}
	}
	sc.shared = tx.NormalizeKeys(sc.shared)
	sc.excl = tx.NormalizeKeys(sc.excl)
	// A key needed both shared and exclusive collapses to exclusive
	// inside admission; remove duplicates from shared here so the
	// accounting in expectRecords stays exact.
	sc.shared = subtractKeys(sc.shared, sc.excl)

	r.shared, r.excl = a.keys(sc.shared), a.keys(sc.excl)
	r.deleteAfterPush, r.insertArrivals, r.writeBackApply = a.keys(sc.deleteAfterPush), a.keys(sc.insertArrivals), a.keys(sc.writeBackApply)
	r.outMigrations = a.migrations(sc.outMigrations)
	r.pushTo = a.pushes(sc.pushes)
	return r
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

// batchArena holds everything one batch's roles at a node carry past
// admission — the jobs, their key lists, pushes and migrations, the
// executing roles' contexts and value views, and the waiting roles'
// mailboxes with their record buffers — in a few slabs instead of
// per-role allocations. Carved slices are three-index sliced (cap == len)
// so an append can never alias a neighbour, and slab growth is safe
// because earlier carves keep the old backing array alive and complete
// (core.routeArena's scheme). The arena also carries the batch's
// admission timestamps.
type batchArena struct {
	node     *Node
	keySlab  []tx.Key
	pushSlab []push
	migSlab  []router.Migration

	// arrival is when the scheduler took the batch; admitted when it
	// handed the batch to qexec; planShare is each role's share of the
	// planning time in between.
	arrival, admitted time.Time
	planShare         time.Duration
}

func newBatchArena(n *Node, plan *router.Plan) *batchArena {
	keys := 0
	for _, rt := range plan.Routes {
		keys += len(rt.Txn.AccessSet()) + len(rt.Migrations)
	}
	return &batchArena{node: n, keySlab: make([]tx.Key, 0, keys)}
}

// keys copies ks into the arena.
func (a *batchArena) keys(ks []tx.Key) []tx.Key {
	if len(ks) == 0 {
		return nil
	}
	at := len(a.keySlab)
	a.keySlab = append(a.keySlab, ks...)
	return a.keySlab[at:len(a.keySlab):len(a.keySlab)]
}

// migrations copies ms into the arena.
func (a *batchArena) migrations(ms []router.Migration) []router.Migration {
	if len(ms) == 0 {
		return nil
	}
	at := len(a.migSlab)
	a.migSlab = append(a.migSlab, ms...)
	return a.migSlab[at:len(a.migSlab):len(a.migSlab)]
}

// pushes groups dks by destination, in order of each destination's first
// push and each destination's keys in push order, into the arena.
func (a *batchArena) pushes(dks []destKey) []push {
	if len(dks) == 0 {
		return nil
	}
	at := len(a.pushSlab)
	for i, dk := range dks {
		if slices.ContainsFunc(dks[:i], func(o destKey) bool { return o.to == dk.to }) {
			continue
		}
		k0 := len(a.keySlab)
		for _, o := range dks[i:] {
			if o.to == dk.to {
				a.keySlab = append(a.keySlab, o.k)
			}
		}
		a.pushSlab = append(a.pushSlab, push{to: dk.to, keys: a.keySlab[k0:len(a.keySlab):len(a.keySlab)]})
	}
	return a.pushSlab[at:len(a.pushSlab):len(a.pushSlab)]
}

// jobsFor makes the batch's jobs from its planned roles: one slab of jobs,
// an execution context and value view for every executing role (a
// master's view marks the keys migrating in from elsewhere), and a
// registered mailbox for every role that waits for records. A mailbox that
// records reached before the batch was admitted is adopted; the others
// come with a record buffer sized to what they expect.
func (a *batchArena) jobsFor(planned []plannedRole) []job {
	if len(planned) == 0 {
		return nil
	}
	n := a.node
	ctxs, views, boxes, recs := 0, 0, 0, 0
	for i := range planned {
		p := &planned[i]
		if p.role.isMaster || p.role.isWriter {
			ctxs++
			views += len(p.rt.Txn.AccessSet())
		}
		if p.role.expectRecords > 0 {
			boxes++
			recs += p.role.expectRecords
		}
	}
	jobs := make([]job, len(planned))
	ctxSlab, viewSlab := make([]execCtx, ctxs), make([]viewSlot, views)
	boxSlab, recSlab := make([]mailbox, boxes), make([]network.Record, recs)
	n.mailMu.Lock()
	defer n.mailMu.Unlock()
	for i := range planned {
		p := &planned[i]
		j := &jobs[i]
		j.a, j.rt, j.role = a, p.rt, p.role
		if p.role.isMaster || p.role.isWriter {
			access := p.rt.Txn.AccessSet()
			j.ctx, ctxSlab = &ctxSlab[0], ctxSlab[1:]
			j.ctx.node = n
			j.ctx.view, viewSlab = viewSlab[:len(access):len(access)], viewSlab[len(access):]
			for v, k := range access {
				j.ctx.view[v].key = k
			}
			if p.role.isMaster {
				for _, m := range p.rt.Migrations {
					if m.To != n.id || m.From == n.id {
						continue
					}
					if s := j.ctx.slot(m.Key); s != nil {
						s.inbound = true
					}
				}
			}
		}
		if want := p.role.expectRecords; want > 0 {
			id := p.rt.Txn.ID
			if j.mb = n.mail[id]; j.mb == nil {
				j.mb, boxSlab = &boxSlab[0], boxSlab[1:]
				j.mb.recs, recSlab = recSlab[:0:want], recSlab[want:]
				n.mail[id] = j.mb
			}
		}
	}
	return jobs
}

// putRecords files a record message in its transactions' mailboxes: the
// one m.Txn names, or in a tagged push, each record's own (Record.Txn).
// Records of a transaction this node has admitted and since released are
// dropped: they are a restarted sender's replay, and a mailbox made for
// them would never be collected.
func (n *Node) putRecords(m *network.Message) {
	recs := m.Records
	for len(recs) > 0 {
		j := 1
		for j < len(recs) && recs[j].Txn == recs[0].Txn {
			j++
		}
		id := recs[0].Txn
		if id == 0 {
			id = m.Txn
		}
		if mb := n.inboundMailbox(id); mb != nil {
			mb.put(recs[:j])
		}
		recs = recs[j:]
	}
}

// inboundMailbox returns the mailbox arriving records for transaction id
// go to: the one its role registered at admission, or one made now for a
// transaction not yet admitted here. It returns nil instead of making a
// mailbox for a finished transaction. The check holds mailMu, and finish
// releases before it drops the mailbox, so a mailbox made here for a
// transaction still registered is always dropped later.
func (n *Node) inboundMailbox(id tx.TxnID) *mailbox {
	n.mailMu.Lock()
	defer n.mailMu.Unlock()
	mb, ok := n.mail[id]
	if !ok {
		if uint64(id) < n.admitted.Load() && !n.qx.Registered(id) {
			return nil
		}
		mb = &mailbox{}
		n.mail[id] = mb
	}
	return mb
}

func (n *Node) dropMailbox(id tx.TxnID) {
	n.mailMu.Lock()
	delete(n.mail, id)
	n.mailMu.Unlock()
}

// mailbox accumulates records pushed to this node for one transaction,
// one per key: a later record for a key replaces the earlier one. A role
// that expects records registers itself as the waiter with subscribe.
type mailbox struct {
	mu   sync.Mutex
	recs []network.Record
	// at maps each key to its record's position once recs outgrows
	// mailboxScanMax, so a wide transaction's records land in linear time.
	at map[tx.Key]int
	// want/waiter are the registered continuation: when records for at
	// least want distinct keys have accumulated, put resumes waiter once
	// with them.
	want   int
	waiter *job
	// taken is set once recs has been handed to the role, which reads it
	// unlocked. Every expected record is in by then, so a later put is a
	// duplicate (a push re-sent by a replaying node) and is dropped.
	taken bool
}

func (m *mailbox) put(records []network.Record) {
	m.mu.Lock()
	if m.taken {
		m.mu.Unlock()
		return
	}
	for _, r := range records {
		if i := m.index(r.Key); i >= 0 {
			m.recs[i] = r
			continue
		}
		if m.at != nil {
			m.at[r.Key] = len(m.recs)
		}
		m.recs = append(m.recs, r)
	}
	var fire *job
	if m.waiter != nil && len(m.recs) >= m.want {
		fire = m.waiter
		m.waiter, m.taken = nil, true
	}
	recs := m.recs
	m.mu.Unlock()
	if fire != nil {
		// Outside the mutex: the continuation re-submits to the bucket
		// worker and must not deadlock against a concurrent put.
		fire.resumeWith(recs)
	}
}

// mailboxScanMax is the most records a mailbox scans for a key before it
// indexes them in a map. The map is built from scratch when recs outgrows
// it, so a switch at T costs more than scanning for mailboxes of T to
// about 2T records and less beyond: at 32, filling a mailbox in puts of 4
// records took 7.3 µs instead of 5.1 µs at 40 records, broke even near
// 60, and took 12.1 instead of 15.2 µs at 96 and 84 instead of 298 µs at
// 512 (docs/PERF.md, "One key list per read-modify-write request").
const mailboxScanMax = 32

// index returns the position of k's record in recs, or -1.
func (m *mailbox) index(k tx.Key) int {
	if m.at == nil {
		if len(m.recs) <= mailboxScanMax {
			return slices.IndexFunc(m.recs, func(o network.Record) bool { return o.Key == k })
		}
		m.at = make(map[tx.Key]int, 2*len(m.recs))
		for i, r := range m.recs {
			m.at[r.Key] = i
		}
	}
	if i, ok := m.at[k]; ok {
		return i
	}
	return -1
}

// subscribe registers j to resume once records for at least want keys
// have arrived. If they already have, it returns (records, true) and
// registers nothing — the caller runs the continuation itself. j resumes
// on the goroutine that delivers the final record.
func (m *mailbox) subscribe(want int, j *job) ([]network.Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.recs) >= want {
		m.taken = true
		return m.recs, true
	}
	m.want, m.waiter = want, j
	return nil, false
}

// sortRecords puts the records a role waited for in key order, for
// recordValue's binary search. The role owns them once its mailbox handed
// them over, and a mailbox holds one record per key, so the order is the
// same on every replica.
func sortRecords(recs []network.Record) {
	slices.SortFunc(recs, func(a, b network.Record) int { return cmp.Compare(a.Key, b.Key) })
}

// recordValue returns the value of k's record in recs, which sortRecords
// has put in key order.
func recordValue(recs []network.Record, k tx.Key) ([]byte, bool) {
	i, ok := slices.BinarySearchFunc(recs, k, func(r network.Record, k tx.Key) int { return cmp.Compare(r.Key, k) })
	if !ok {
		return nil, false
	}
	return recs[i].Value, true
}

// outbox gathers a node's outbound record pushes, one pending push per
// destination, each record tagged with its transaction.
type outbox struct {
	mu      sync.Mutex
	pending []pendingPush
	// spare is the pending list the last flush sent, emptied, for the
	// next one.
	spare []pendingPush
	// full is set while pending holds anything, so that the end of a chunk
	// that pushed nothing costs no lock. A chunk that adds sees its own add.
	full atomic.Bool
}

type pendingPush struct {
	to   tx.NodeID
	recs []network.Record
}

// add queues a copy of recs, tagged with their transactions, for to. Each
// destination's records go into a slice of the outbox's own, which the
// push that sends them takes over.
func (o *outbox) add(to tx.NodeID, recs []network.Record) {
	if len(recs) == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := range o.pending {
		if p := &o.pending[i]; p.to == to {
			p.recs = append(p.recs, recs...)
			return
		}
	}
	o.pending = append(o.pending, pendingPush{to: to, recs: append(make([]network.Record, 0, max(len(recs), 4)), recs...)})
	o.full.Store(true)
}

// take empties the outbox and returns what it held. The caller hands the
// list back with give once it has sent it.
func (o *outbox) take() []pendingPush {
	if !o.full.Load() {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	p := o.pending
	o.pending, o.spare = o.spare, nil
	o.full.Store(false)
	return p
}

// give returns a list take handed out, for reuse.
func (o *outbox) give(p []pendingPush) {
	clear(p)
	o.mu.Lock()
	if o.spare == nil {
		o.spare = p[:0]
	}
	o.mu.Unlock()
}

// flushPushes sends everything in the outbox, one MsgRecordPush per
// destination. A push whose records all belong to one transaction names
// it in Txn and leaves its records untagged, at the size a push for that
// transaction alone always had; a push for several keeps the tags.
func (n *Node) flushPushes() {
	pending := n.out.take()
	if pending == nil {
		return
	}
	for _, p := range pending {
		m := network.Message{From: n.id, To: p.to, Type: network.MsgRecordPush, Records: p.recs}
		if !slices.ContainsFunc(p.recs, func(r network.Record) bool { return r.Txn != p.recs[0].Txn }) {
			m.Txn = p.recs[0].Txn
			for i := range p.recs {
				p.recs[i].Txn = 0
			}
		}
		_ = n.cluster.tr.Send(m)
	}
	n.out.give(pending)
}
