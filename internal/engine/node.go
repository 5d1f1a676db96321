package engine

import (
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
// routing-policy replica, command log, and the scheduler / executor
// goroutines.
type Node struct {
	id      tx.NodeID
	cluster *Cluster
	store   *storage.Store
	// qx is the admission engine: per-key operation queues planned from
	// each sealed batch and drained in total order by bucket workers.
	qx     *qexec.Executor
	policy router.Policy
	cmdlog *storage.CommandLog

	batches chan *tx.Batch
	// execSem bounds how many roles handed off by dispatch run at once
	// (nil = unbounded).
	execSem chan struct{}
	// scheduled is 1 + the sequence of the last batch fully admitted;
	// quiescence checks compare it with the log.
	scheduled atomic.Uint64
	// refused describes the first batch the command log turned away
	// because it arrived ahead of the sequence the log wanted: the
	// total-order layer skipped or reordered a batch, and this node will
	// wait forever for the one in between. Quiescence diagnostics quote it.
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
		cmdlog:  storage.NewCommandLog(),
		batches: make(chan *tx.Batch, 1024),
		mail:    make(map[tx.TxnID]*mailbox),
		done:    make(map[tx.TxnID]*doneGroup),
		quit:    make(chan struct{}),
	}
	executors := c.cfg.Executors
	if executors == 0 {
		executors = 4
	}
	workers := executors
	if workers < 0 {
		workers = 8
	} else {
		n.execSem = make(chan struct{}, executors)
	}
	n.qx = qexec.New(qexec.Config{Workers: workers, AfterChunk: n.flushPushes})
	return n
}

// dispatch runs fn — an admitted role, or the rest of one whose records
// have arrived — for the bucket worker that calls it. This is the one
// place the cost model picks where a role runs. At zero cost nothing in a
// role sleeps, so it runs inline on the bucket worker: no goroutine, no
// hand-off, and its record pushes leave with the rest of the worker's
// chunk. A role that will sleep (ExecCost, StorageDelay) would stall
// every key queue in its bucket for as long as it sleeps, so it goes to a
// goroutine that holds one of the Executors slots while it runs and
// flushes the outbox when it returns. Waiting for records holds no slot,
// so the bound cannot deadlock.
func (n *Node) dispatch(fn func()) {
	if cfg := n.cluster.cfg; cfg.ExecCost == 0 && cfg.StorageDelay == 0 {
		fn()
		return
	}
	n.roleGoroutines.Add(1)
	n.wg.Add(1) // from a bucket worker: wait joins them before wg.Wait
	go func() {
		defer n.wg.Done()
		if n.execSem != nil {
			// Give up on shutdown so a crash cannot strand a role behind a
			// saturated pool.
			select {
			case n.execSem <- struct{}{}:
				defer func() { <-n.execSem }()
			case <-n.quit:
				return
			}
		}
		fn()
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
	// The bucket workers go first: joining them also joins any inline role
	// still running on one, and after it no dispatch can start another
	// goroutine, so wg.Wait below cannot race a wg.Add. Entries left queued
	// are abandoned, and so is their share of the migration gauge.
	n.qx.Close()
	n.wg.Wait()
	n.cluster.collector.AddMigrationsInFlight(-n.migrating.Swap(0))
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

// RoleGoroutines reports how many roles this node has ever handed to a
// goroutine (zero while the cost model is zero).
func (n *Node) RoleGoroutines() int64 { return n.roleGoroutines.Load() }

// admit plans the batch — it derives this node's role in every route —
// and then admits the whole batch into the per-key queues in one call.
// The bucket worker that completes a role's rendezvous hands it to
// dispatch. Roles that expect inbound records split at the mailbox instead
// of parking (see run), so a record wait never stalls a bucket worker and
// never holds a goroutine either.
func (n *Node) admit(plan *router.Plan, arrival time.Time) {
	planStart := time.Now()
	type job struct {
		rt   *router.Route
		role *role
	}
	jobs := make([]job, 0, len(plan.Routes))
	ops := make([]*qexec.Op, 0, len(plan.Routes))
	var remote []tx.TxnID // committed here for clients in other processes
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
		if n.remoteAnswer(rt) {
			remote = append(remote, rt.Txn.ID)
		}
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
		// If the node crashes before the rendezvous, the closure simply
		// never fires.
		ops[i].OnReady = func() {
			n.dispatch(func() { n.run(rt, role, arrival, admitted, planShare) })
		}
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
	n.qx.AdmitBatch(ops)
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
	// inside admission; remove duplicates from shared here so the
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

// inboundMailbox is mailboxFor for arriving records: it returns nil
// instead of making a mailbox for a finished transaction. The check holds
// mailMu, and finish releases before it drops the mailbox, so a mailbox
// made here for a transaction still registered is always dropped later.
func (n *Node) inboundMailbox(id tx.TxnID) *mailbox {
	n.mailMu.Lock()
	defer n.mailMu.Unlock()
	mb, ok := n.mail[id]
	if !ok {
		if uint64(id) < n.admitted.Load() && !n.qx.Registered(id) {
			return nil
		}
		mb = newMailbox()
		n.mail[id] = mb
	}
	return mb
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

// mailbox accumulates records pushed to this node for one transaction. A
// role that expects records registers a continuation with subscribe.
type mailbox struct {
	mu   sync.Mutex
	recs map[tx.Key][]byte
	// want/cont are the registered continuation: when at least want
	// records have accumulated, put fires cont once with the record map.
	want int
	cont func(map[tx.Key][]byte)
	// taken is set once recs has been handed to the role, which reads it
	// unlocked. Every expected record is in by then, so a later put is a
	// duplicate (a push re-sent by a replaying node) and is dropped.
	taken bool
}

func newMailbox() *mailbox {
	return &mailbox{recs: map[tx.Key][]byte{}}
}

func (m *mailbox) put(records []network.Record) {
	m.mu.Lock()
	if m.taken {
		m.mu.Unlock()
		return
	}
	for _, r := range records {
		m.recs[r.Key] = r.Value
	}
	var fire func(map[tx.Key][]byte)
	var out map[tx.Key][]byte
	if m.cont != nil && len(m.recs) >= m.want {
		fire, out = m.cont, m.recs
		m.cont, m.taken = nil, true
	}
	m.mu.Unlock()
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
		m.taken = true
		return m.recs, true
	}
	m.want, m.cont = want, fn
	return nil, false
}

// outbox gathers a node's outbound record pushes, one pending push per
// destination, each record tagged with its transaction.
type outbox struct {
	mu      sync.Mutex
	pending []pendingPush
	// full is set while pending holds anything, so that the end of a chunk
	// that pushed nothing costs no lock. A chunk that adds sees its own add.
	full atomic.Bool
}

type pendingPush struct {
	to   tx.NodeID
	recs []network.Record
}

// add queues recs, tagged with their transactions, for to. The outbox
// takes recs over: the first push for a destination is sent in place.
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
	o.pending = append(o.pending, pendingPush{to: to, recs: recs})
	o.full.Store(true)
}

// take empties the outbox and returns what it held.
func (o *outbox) take() []pendingPush {
	if !o.full.Load() {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	p := o.pending
	o.pending = nil
	o.full.Store(false)
	return p
}

// flushPushes sends everything in the outbox, one MsgRecordPush per
// destination. A push whose records all belong to one transaction names
// it in Txn and leaves its records untagged, at the size a push for that
// transaction alone always had; a push for several keeps the tags.
func (n *Node) flushPushes() {
	for _, p := range n.out.take() {
		m := network.Message{From: n.id, To: p.to, Type: network.MsgRecordPush, Records: p.recs}
		if !slices.ContainsFunc(p.recs, func(r network.Record) bool { return r.Txn != p.recs[0].Txn }) {
			m.Txn = p.recs[0].Txn
			for i := range p.recs {
				p.recs[i].Txn = 0
			}
		}
		_ = n.cluster.tr.Send(m)
	}
}
