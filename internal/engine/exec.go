package engine

import (
	"time"

	"hermes/internal/lock"
	"hermes/internal/metrics"
	"hermes/internal/network"
	"hermes/internal/router"
	"hermes/internal/storage"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// run executes this node's role for one routed transaction. In lock mode
// it is spawned per role and blocks on its grant; deadlock freedom comes
// from the conservative ordered locking (locks were acquired in total
// order by the scheduler) plus the fact that record waits only ever point
// "toward" nodes that will push unconditionally once their own locks are
// granted. In queue mode it is either invoked inline by the bucket worker
// that completed the rendezvous (grant == nil — admission is already
// complete) or spawned with a grant to wait on; admitted and planShare
// carry the batch-admission timestamp and this transaction's share of the
// queue-planning cost so the latency breakdown stays honest across modes.
func (n *Node) run(rt *router.Route, role *role, grant lock.Granted, arrival time.Time, admitted time.Time, planShare time.Duration) {
	// The in-flight gauge spans one transaction's whole execution window
	// (lock wait included), counted once at the committing node.
	if len(rt.Migrations) > 0 && rt.Mode != router.Provision && n.isCommitter(rt) {
		n.cluster.collector.AddMigrationsInFlight(1)
		defer n.cluster.collector.AddMigrationsInFlight(-1)
	}
	dispatch := admitted
	if dispatch.IsZero() {
		dispatch = time.Now()
	}
	if grant != nil {
		select {
		case <-grant.Done():
		case <-n.quit:
			return
		}
	}
	granted := time.Now()
	n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseLocked, int64(granted.Sub(dispatch)))

	storageTime, ok := n.pushOwned(rt, role)
	if !ok {
		return // node shutting down
	}

	// Phase 2: wait for inbound records if any are expected.
	var remote map[tx.Key][]byte
	var remoteReady time.Time
	if role.expectRecords > 0 {
		remote = n.mailboxFor(rt.Txn.ID).waitFor(role.expectRecords, n.quit)
		if remote == nil {
			return // shutting down
		}
		remoteReady = time.Now()
		n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseRemoteReady, int64(role.expectRecords))
	} else {
		remoteReady = granted
	}

	n.finish(rt, role, remote, arrival, dispatch, granted, remoteReady, storageTime, planShare)
}

// pushOwned is Phase 1: push owned records (remote reads, write-back
// inputs, and migration payloads) to their destinations, deleting outbound
// migration sources. Serving records is real work for the owner: it
// occupies an executor slot and consumes a fraction of ExecCost, so
// systems that repeatedly pull from a hot node (G-Store's and T-Part's
// per-batch pulls) keep loading it, while a migration frees it — the
// effect behind Figs. 11-14. It reports false if the node is shutting
// down.
func (n *Node) pushOwned(rt *router.Route, role *role) (time.Duration, bool) {
	var storageTime time.Duration
	if len(role.pushTo) > 0 {
		if !n.execSlot() {
			return 0, false
		}
		if d := n.cluster.cfg.ExecCost / 4; d > 0 {
			t0 := time.Now()
			time.Sleep(d)
			n.cluster.collector.AddBusy(int(n.id), time.Since(t0))
		}
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
			recs = append(recs, network.Record{Key: k, Value: v})
		}
		_ = n.cluster.tr.Send(network.Message{
			From: n.id, To: dest, Type: network.MsgRecordPush,
			Txn: rt.Txn.ID, Records: recs,
		})
	}
	for _, k := range role.deleteAfterPush {
		n.store.Delete(k)
	}
	if len(role.pushTo) > 0 {
		n.execDone()
	}
	return storageTime, true
}

// finish is Phase 3 plus commit accounting: the role-specific work, lock
// release, and — at the committing role — the latency breakdown and commit
// report. remote is nil when the role expected no records.
func (n *Node) finish(rt *router.Route, role *role, remote map[tx.Key][]byte,
	arrival, dispatch, granted, remoteReady time.Time,
	storageTime time.Duration, planShare time.Duration,
) {
	// Phase 3: role-specific work.
	aborted := false
	switch {
	case role.isMaster:
		if !n.execSlot() {
			return
		}
		var st time.Duration
		st, aborted = n.runMaster(rt, role, remote)
		storageTime += st
		n.execDone()
		n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseExecuted, 0)
	case role.isWriter:
		if !n.execSlot() {
			return
		}
		var st time.Duration
		st, aborted = n.runWriter(rt, remote)
		storageTime += st
		n.execDone()
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

	n.locks.Release(rt.Txn.ID)
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
			bd := metrics.Breakdown{
				Scheduling: dispatch.Sub(arrival),
				RemoteWait: remoteReady.Sub(granted),
				Storage:    storageTime,
			}
			if n.qx != nil {
				// Queue mode has no lock manager: LockWait is genuinely
				// zero. Queue residence (admission -> rendezvous) and the
				// per-transaction share of batch planning are reported as
				// their own components, not hidden in Scheduling.
				bd.QueueWait = granted.Sub(dispatch)
				bd.QueuePlan = planShare
				bd.Scheduling -= planShare
				if bd.Scheduling < 0 {
					bd.Scheduling = 0
				}
			} else {
				bd.LockWait = granted.Sub(dispatch)
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

// runQueuedSplit is queue mode's path for roles that expect inbound
// records, invoked inline by the bucket worker that completed the
// admission rendezvous. It performs Phase 1 immediately, then — instead of
// parking a goroutine on the mailbox the way lock mode does — registers a
// continuation that fires when the last record lands; the continuation
// re-enters the bucket pool via qexec.Submit so the storage work and
// ExecCost sleeps of Phase 3 never run on the transport receive loop. If
// the node crashes before the records arrive the continuation simply never
// fires, leaving its queue entries (and the in-flight migration gauge)
// abandoned — the same semantics as a crashed node's lock table.
func (n *Node) runQueuedSplit(rt *router.Route, role *role, arrival, admitted time.Time, planShare time.Duration) {
	gauge := len(rt.Migrations) > 0 && rt.Mode != router.Provision && n.isCommitter(rt)
	if gauge {
		n.cluster.collector.AddMigrationsInFlight(1)
	}
	dispatch := admitted
	granted := time.Now()
	n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseLocked, int64(granted.Sub(dispatch)))

	storageTime, ok := n.pushOwned(rt, role)
	if !ok {
		if gauge {
			n.cluster.collector.AddMigrationsInFlight(-1)
		}
		return // node shutting down
	}

	cont := func(remote map[tx.Key][]byte) {
		remoteReady := time.Now()
		n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseRemoteReady, int64(role.expectRecords))
		n.finish(rt, role, remote, arrival, dispatch, granted, remoteReady, storageTime, planShare)
		if gauge {
			n.cluster.collector.AddMigrationsInFlight(-1)
		}
	}
	if remote, ready := n.mailboxFor(rt.Txn.ID).subscribe(role.expectRecords, func(remote map[tx.Key][]byte) {
		n.qx.Submit(rt.Txn.ID, func() { cont(remote) })
	}); ready {
		cont(remote)
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
	// owner still holds the lock and must be released by this message).
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
	// carry post-execution values). The push happens even when the
	// record is absent (nil payload): the destination's arrival role is
	// blocked on this message and would otherwise hold its exclusive
	// lock forever.
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
		_ = n.cluster.tr.Send(network.Message{
			From: n.id, To: m.To, Type: network.MsgRecordPush,
			Txn: req.ID, Records: []network.Record{{Key: m.Key, Value: v}},
		})
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
