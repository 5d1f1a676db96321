package engine

import (
	"time"

	"hermes/internal/metrics"
	"hermes/internal/network"
	"hermes/internal/router"
	"hermes/internal/storage"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// run executes this node's role for one admitted transaction; dispatch
// calls it once every key the role needs has been granted. Phase 1 pushes
// the records this node owns to where they are needed. A role that
// expects no records then finishes at once. One that does subscribes to
// its mailbox instead of parking: when the last record lands, the
// continuation re-enters the bucket pool through qexec.Submit and
// dispatch, so the Phase 3 work never runs on the transport receive loop.
// Deadlock freedom comes from admission in total order plus the fact that
// record waits only ever point "toward" nodes that push unconditionally
// once their own keys are granted. admitted and planShare carry the
// batch-admission timestamp and this transaction's share of the planning
// cost for the latency breakdown.
func (n *Node) run(rt *router.Route, role *role, arrival, admitted time.Time, planShare time.Duration) {
	// The in-flight gauge spans the role from here to finish (the record
	// wait included), counted once at the committing node.
	if n.countsMigration(rt) {
		n.addMigrating(1)
	}
	granted := time.Now()
	n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseLocked, int64(granted.Sub(admitted)))

	storageTime := n.pushOwned(rt, role)
	if role.expectRecords == 0 {
		n.finish(rt, role, nil, arrival, admitted, granted, granted, storageTime, planShare)
		return
	}
	cont := func(remote map[tx.Key][]byte) {
		remoteReady := time.Now()
		n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseRemoteReady, int64(role.expectRecords))
		n.finish(rt, role, remote, arrival, admitted, granted, remoteReady, storageTime, planShare)
	}
	if remote, ready := n.mailboxFor(rt.Txn.ID).subscribe(role.expectRecords, func(remote map[tx.Key][]byte) {
		n.qx.Submit(rt.Txn.ID, func() { n.dispatch(func() { cont(remote) }) })
	}); ready {
		cont(remote)
	}
}

// countsMigration reports whether rt counts on the in-flight migration
// gauge at this node: a user transaction with attached migrations, at its
// committing node.
func (n *Node) countsMigration(rt *router.Route) bool {
	return len(rt.Migrations) > 0 && rt.Mode != router.Provision && n.isCommitter(rt)
}

func (n *Node) addMigrating(d int64) {
	n.migrating.Add(d)
	n.cluster.collector.AddMigrationsInFlight(d)
}

// pushOwned is Phase 1: push owned records (remote reads, write-back
// inputs, and migration payloads) to their destinations, deleting outbound
// migration sources. The pushes go to the node's outbox, which the end of
// the bucket-worker chunk (or of the dispatch goroutine) running this role
// flushes. Serving records is real work for the owner: it
// consumes a fraction of ExecCost, so systems that repeatedly pull from a
// hot node (G-Store's and T-Part's per-batch pulls) keep loading it, while
// a migration frees it — the effect behind Figs. 11-14.
func (n *Node) pushOwned(rt *router.Route, role *role) time.Duration {
	var storageTime time.Duration
	if d := n.cluster.cfg.ExecCost / 4; d > 0 && len(role.pushTo) > 0 {
		t0 := time.Now()
		time.Sleep(d)
		n.cluster.collector.AddBusy(int(n.id), time.Since(t0))
	}
	for dest, keys := range role.pushTo {
		recs := make([]network.Record, 0, len(keys))
		for _, k := range keys {
			t0 := time.Now()
			v, ok := n.store.Read(k)
			n.sleepStorage()
			storageTime += time.Since(t0)
			if !ok {
				v = nil // absent records travel as nil and materialize on write
			}
			recs = append(recs, network.Record{Key: k, Value: v, Txn: rt.Txn.ID})
		}
		n.out.add(dest, recs)
	}
	for _, k := range role.deleteAfterPush {
		n.store.Delete(k)
	}
	return storageTime
}

// finish is Phase 3 plus commit accounting: the role-specific work, the
// release of the role's keys, and — at the committing role — the latency
// breakdown and commit report. remote is nil when the role expected no
// records.
func (n *Node) finish(rt *router.Route, role *role, remote map[tx.Key][]byte,
	arrival, admitted, granted, remoteReady time.Time,
	storageTime time.Duration, planShare time.Duration,
) {
	// Phase 3: role-specific work.
	aborted := false
	switch {
	case role.isMaster:
		var st time.Duration
		st, aborted = n.runMaster(rt, role, remote)
		storageTime += st
		n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseExecuted, 0)
	case role.isWriter:
		var st time.Duration
		st, aborted = n.runWriter(rt, remote)
		storageTime += st
		n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseExecuted, 0)
	default:
		// Pure source / arrival role: insert migration arrivals and apply
		// write-backs, then release.
		var migBytes int64
		for _, k := range role.insertArrivals {
			if v, ok := remote[k]; ok && v != nil {
				t0 := time.Now()
				n.store.Write(k, v)
				n.sleepStorage()
				storageTime += time.Since(t0)
				migBytes += int64(len(v))
			}
		}
		if len(role.insertArrivals) > 0 {
			n.cluster.collector.RecordMigrationBytes(int(migBytes))
			n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseMigratedIn, migBytes)
		}
		for _, k := range role.writeBackApply {
			if v, ok := remote[k]; ok {
				t0 := time.Now()
				n.store.Write(k, v)
				n.sleepStorage()
				storageTime += time.Since(t0)
			}
		}
	}

	// The gauge drops before the keys do, so a node whose queues read
	// empty (a settled node) has no migration left in flight.
	if n.countsMigration(rt) {
		n.addMigrating(-1)
	}
	n.qx.Release(rt.Txn.ID)
	n.dropMailbox(rt.Txn.ID)
	n.cluster.collector.AddBusy(int(n.id), storageTime)

	// Commit reporting happens exactly once, at the committing role.
	// Provisioning control transactions were acknowledged by the
	// scheduler, and logic aborts were counted by the executing role;
	// neither counts as a user commit (the client is answered either
	// way).
	if rt.Mode != router.Provision && n.isCommitter(rt) {
		if !aborted && n.cluster.accountOnce(rt.Txn.ID) {
			done := time.Now()
			total := done.Sub(rt.Txn.SubmitTime)
			if rt.Txn.SubmitTime.IsZero() {
				total = done.Sub(arrival)
			}
			// There is no lock manager, so LockWait stays zero. Queue
			// residence (admission -> rendezvous, plus the hand-off's wait
			// for an executor slot) and the per-transaction share of batch
			// planning are reported as their own components, not hidden in
			// Scheduling.
			bd := metrics.Breakdown{
				Scheduling: max(admitted.Sub(arrival)-planShare, 0),
				QueuePlan:  planShare,
				QueueWait:  granted.Sub(admitted),
				RemoteWait: remoteReady.Sub(granted),
				Storage:    storageTime,
			}
			if rest := total - bd.Total(); rest > 0 {
				bd.Other = rest
			}
			n.cluster.collector.RecordCommit(done, bd)
			n.cluster.collector.RecordMigration(len(rt.Migrations))
			n.cluster.collector.RecordRemoteReads(role.expectRecords)
			n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseCommitted, int64(total))
			n.cluster.cfg.Telemetry.ObserveCommit(n.id, rt.Txn.ID, [telemetry.NumComponents]int64{
				telemetry.CompScheduling: int64(bd.Scheduling),
				telemetry.CompLockWait:   int64(bd.LockWait),
				telemetry.CompQueuePlan:  int64(bd.QueuePlan),
				telemetry.CompQueueWait:  int64(bd.QueueWait),
				telemetry.CompStorage:    int64(bd.Storage),
				telemetry.CompRemoteWait: int64(bd.RemoteWait),
				telemetry.CompOther:      int64(bd.Other),
				telemetry.CompTotal:      int64(total),
			})
			if hook := n.cluster.cfg.CommitHook; hook != nil {
				hook(rt)
			}
		}
		if aborted {
			n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseAborted, 0)
		}
		n.answer(rt.Txn)
	}
}

func (n *Node) sleepStorage() {
	if d := n.cluster.cfg.StorageDelay; d > 0 {
		time.Sleep(d)
	}
}

// runMaster executes the transaction logic at the single-master execution
// site: assemble the value view from local storage and pushed records,
// insert inbound migrations into local storage, run the procedure with
// UNDO protection, then distribute write-backs and outbound migrations.
func (n *Node) runMaster(rt *router.Route, role *role, remote map[tx.Key][]byte) (time.Duration, bool) {
	var storageTime time.Duration
	req := rt.Txn
	access := req.AccessSet()
	writes := req.WriteSet()

	// Reads of a nil map are legal and return false, so the single-node
	// common case (no migrations, no write-backs) allocates neither.
	var inbound map[tx.Key]bool // keys migrating INTO this master
	if len(rt.Migrations) > 0 {
		inbound = make(map[tx.Key]bool, len(rt.Migrations))
		for _, m := range rt.Migrations {
			if m.To == n.id && m.From != n.id {
				inbound[m.Key] = true
			}
		}
	}
	var writeBack map[tx.Key]bool
	if len(rt.WriteBack) > 0 {
		writeBack = make(map[tx.Key]bool, len(rt.WriteBack))
		for _, k := range rt.WriteBack {
			writeBack[k] = true
		}
	}

	vals := make(map[tx.Key][]byte, len(access))
	orig := make(map[tx.Key][]byte, len(access))
	undo := storage.NewUndoLog(n.store)
	localAfter := make(map[tx.Key]bool, len(access))
	var migBytes int64

	for _, k := range access {
		owner := rt.Owners.Get(k)
		if owner == n.id {
			t0 := time.Now()
			v, _ := n.store.Read(k)
			n.sleepStorage()
			storageTime += time.Since(t0)
			vals[k] = v
			localAfter[k] = true
		} else {
			v := remote[k]
			vals[k] = v
			if inbound[k] {
				// Inbound data-fusion migration: the record becomes local
				// storage *regardless of abort* (§4.2) — the plan's
				// placement effects always happen.
				if v != nil {
					t0 := time.Now()
					n.store.Write(k, v)
					n.sleepStorage()
					storageTime += time.Since(t0)
					migBytes += int64(len(v))
				}
				localAfter[k] = true
			}
		}
		orig[k] = vals[k]
	}
	// Non-access eviction arrivals handled exactly like at any other node.
	for _, k := range role.insertArrivals {
		if v, ok := remote[k]; ok && v != nil {
			t0 := time.Now()
			n.store.Write(k, v)
			n.sleepStorage()
			storageTime += time.Since(t0)
			migBytes += int64(len(v))
		}
	}
	if len(inbound) > 0 || len(role.insertArrivals) > 0 {
		n.cluster.collector.RecordMigrationBytes(int(migBytes))
		n.cluster.tracer.Emit(n.id, req.ID, telemetry.PhaseMigratedIn, migBytes)
	}

	ctx := &execCtx{node: n, vals: vals, localAfter: localAfter, undo: undo}
	execStart := time.Now()
	req.Proc.Execute(ctx)
	if d := n.cluster.cfg.ExecCost; d > 0 {
		time.Sleep(d) // simulated CPU work while holding the executor slot
	}
	n.cluster.collector.AddBusy(int(n.id), time.Since(execStart))
	storageTime += ctx.storageTime

	if ctx.aborted {
		undo.Rollback()
		if n.cluster.accountOnce(req.ID) {
			n.cluster.collector.RecordAbort()
		}
	} else {
		undo.Discard()
	}

	// Write-backs: final values on commit, original values on abort (the
	// owner still holds the key and must be released by this message).
	var byOwner map[tx.NodeID][]network.Record
	for _, k := range writes {
		if !writeBack[k] {
			continue
		}
		if byOwner == nil {
			byOwner = make(map[tx.NodeID][]network.Record, 1)
		}
		v := orig[k]
		if !ctx.aborted {
			if bv, ok := ctx.buffered[k]; ok {
				v = bv
			}
		}
		owner := rt.Owners.Get(k)
		byOwner[owner] = append(byOwner[owner], network.Record{Key: k, Value: v})
	}
	for owner, recs := range byOwner {
		_ = n.cluster.tr.Send(network.Message{
			From: n.id, To: owner, Type: network.MsgWriteBack,
			Txn: req.ID, Records: recs,
		})
	}

	// Outbound migrations from the master (return-home moves that must
	// carry post-execution values), through the outbox like pushOwned's.
	// The push happens even when the record is absent (nil payload): the
	// destination's arrival role is blocked on this message and would
	// otherwise hold its exclusive key forever.
	for _, m := range role.outMigrations {
		t0 := time.Now()
		v, ok := n.store.Read(m.Key)
		n.sleepStorage()
		storageTime += time.Since(t0)
		if ok {
			n.store.Delete(m.Key)
		} else {
			v = nil
		}
		n.out.add(m.To, []network.Record{{Key: m.Key, Value: v, Txn: req.ID}})
	}
	return storageTime, ctx.aborted
}

// runWriter executes the transaction logic at one of Calvin's
// multi-master writers: it has all read values (local + broadcast) and
// applies only the writes it owns.
func (n *Node) runWriter(rt *router.Route, remote map[tx.Key][]byte) (time.Duration, bool) {
	var storageTime time.Duration
	req := rt.Txn
	vals := make(map[tx.Key][]byte)
	localAfter := map[tx.Key]bool{}
	for _, k := range req.AccessSet() {
		if rt.Owners.Get(k) == n.id {
			t0 := time.Now()
			v, _ := n.store.Read(k)
			n.sleepStorage()
			storageTime += time.Since(t0)
			vals[k] = v
			localAfter[k] = true
		} else if v, ok := remote[k]; ok {
			vals[k] = v
		}
	}
	undo := storage.NewUndoLog(n.store)
	ctx := &execCtx{node: n, vals: vals, localAfter: localAfter, undo: undo}
	execStart := time.Now()
	req.Proc.Execute(ctx)
	if d := n.cluster.cfg.ExecCost; d > 0 {
		time.Sleep(d)
	}
	n.cluster.collector.AddBusy(int(n.id), time.Since(execStart))
	storageTime += ctx.storageTime
	if ctx.aborted {
		undo.Rollback()
		if n.isCommitter(rt) && n.cluster.accountOnce(req.ID) {
			n.cluster.collector.RecordAbort()
		}
	} else {
		undo.Discard()
	}
	return storageTime, ctx.aborted
}

// execCtx implements tx.ExecCtx for an executing role. Reads come from
// the assembled value view; writes go through the undo log when the key
// is (or becomes) local, and into the write-back buffer (allocated on
// first remote write) otherwise.
type execCtx struct {
	node        *Node
	vals        map[tx.Key][]byte
	localAfter  map[tx.Key]bool
	undo        *storage.UndoLog
	buffered    map[tx.Key][]byte
	aborted     bool
	storageTime time.Duration
}

// Read implements tx.ExecCtx.
func (c *execCtx) Read(k tx.Key) []byte { return c.vals[k] }

// Write implements tx.ExecCtx.
func (c *execCtx) Write(k tx.Key, v []byte) {
	if c.aborted {
		return
	}
	c.vals[k] = v
	if c.localAfter[k] {
		t0 := time.Now()
		c.undo.Write(k, v)
		c.node.sleepStorage()
		c.storageTime += time.Since(t0)
	} else {
		if c.buffered == nil {
			c.buffered = make(map[tx.Key][]byte, 1)
		}
		c.buffered[k] = v
	}
}

// Abort implements tx.ExecCtx.
func (c *execCtx) Abort(string) { c.aborted = true }

// Aborted implements tx.ExecCtx.
func (c *execCtx) Aborted() bool { return c.aborted }
