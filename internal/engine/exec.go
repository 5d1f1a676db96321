package engine

import (
	"cmp"
	"slices"
	"time"

	"hermes/internal/metrics"
	"hermes/internal/network"
	"hermes/internal/router"
	"hermes/internal/storage"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// job is one admitted role on its way through this node: the route, the
// role, and what its execution accumulates. A batch's jobs live in one
// slab (batchArena.jobsFor); step is the one closure a job has, which
// qexec calls when the role is granted and again, through Submit, when the
// records it waited for are in.
type job struct {
	a    *batchArena
	rt   *router.Route
	role role
	step func()

	// started is set once run has begun: the next step resumes.
	started     bool
	granted     time.Time
	storageTime time.Duration
	// remote holds the records the role waited for, once they are in.
	remote []network.Record

	// mb is the mailbox of a role that expects records: its own, from the
	// arena, or one records reached before the batch was admitted.
	mb *mailbox
	// ctx is the execution context of a master or writer role.
	ctx *execCtx
}

// step runs the part of j that is due: the role itself, or its rest once
// its records are in.
func (n *Node) step(j *job) {
	if !j.started {
		n.run(j)
		return
	}
	remoteReady := time.Now()
	n.cluster.tracer.Emit(n.id, j.rt.Txn.ID, telemetry.PhaseRemoteReady, int64(j.role.expectRecords))
	n.finish(j, remoteReady)
}

// resumeWith hands j the records it waited for and re-enters it into the
// bucket pool.
func (j *job) resumeWith(recs []network.Record) {
	j.remote = recs
	j.a.node.qx.Submit(j.rt.Txn.ID, j.step)
}

// run executes this node's role for one admitted transaction; dispatch
// calls it once every key the role needs has been granted. Phase 1 pushes
// the records this node owns to where they are needed. A role that
// expects no records then finishes at once. One that does subscribes to
// its mailbox instead of parking: when the last record lands, the job
// re-enters the bucket pool through qexec.Submit and dispatch, so the
// Phase 3 work never runs on the transport receive loop. Deadlock freedom
// comes from admission in total order plus the fact that record waits
// only ever point "toward" nodes that push unconditionally once their own
// keys are granted.
func (n *Node) run(j *job) {
	rt := j.rt
	// The in-flight gauge spans the role from here to finish (the record
	// wait included), counted once at the committing node.
	if n.countsMigration(rt) {
		n.addMigrating(1)
	}
	j.started = true
	j.granted = time.Now()
	n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseLocked, int64(j.granted.Sub(j.a.admitted)))

	j.storageTime = n.pushOwned(rt, &j.role)
	if j.role.expectRecords == 0 {
		n.finish(j, j.granted)
		return
	}
	if remote, ready := j.mb.subscribe(j.role.expectRecords, j); ready {
		j.remote = remote
		n.step(j)
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
	var buf [8]network.Record // the outbox copies what it is given
	for _, p := range role.pushTo {
		recs := buf[:0]
		for _, k := range p.keys {
			t0 := time.Now()
			v, ok := n.store.Read(k)
			n.sleepStorage()
			storageTime += time.Since(t0)
			if !ok {
				v = nil // absent records travel as nil and materialize on write
			}
			recs = append(recs, network.Record{Key: k, Value: v, Txn: rt.Txn.ID})
		}
		n.out.add(p.to, recs)
	}
	for _, k := range role.deleteAfterPush {
		n.store.Delete(k)
	}
	return storageTime
}

// finish is Phase 3 plus commit accounting: the role-specific work, the
// release of the role's keys, and — at the committing role — the latency
// breakdown and commit report. j.remote is nil when the role expected no
// records.
func (n *Node) finish(j *job, remoteReady time.Time) {
	sortRecords(j.remote)
	rt, role, remote := j.rt, &j.role, j.remote
	arrival, admitted, granted := j.a.arrival, j.a.admitted, j.granted
	storageTime, planShare := j.storageTime, j.a.planShare
	// Phase 3: role-specific work.
	aborted := false
	switch {
	case role.isMaster:
		var st time.Duration
		st, aborted = n.runMaster(j)
		storageTime += st
		n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseExecuted, 0)
	case role.isWriter:
		var st time.Duration
		st, aborted = n.runWriter(j)
		storageTime += st
		n.cluster.tracer.Emit(n.id, rt.Txn.ID, telemetry.PhaseExecuted, 0)
	default:
		// Pure source / arrival role: insert migration arrivals and apply
		// write-backs, then release.
		var migBytes int64
		for _, k := range role.insertArrivals {
			if v, ok := recordValue(remote, k); ok && v != nil {
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
			if v, ok := recordValue(remote, k); ok {
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
func (n *Node) runMaster(j *job) (time.Duration, bool) {
	var storageTime time.Duration
	rt, role, remote := j.rt, &j.role, j.remote
	req := rt.Txn
	writes := req.WriteSet()
	ctx := j.ctx

	var migBytes int64
	inbound := slices.ContainsFunc(rt.Migrations, func(m router.Migration) bool { return m.To == n.id && m.From != n.id })
	for i := range ctx.view {
		s := &ctx.view[i]
		if rt.Owners.Get(s.key) == n.id {
			t0 := time.Now()
			s.val, _ = n.store.Read(s.key)
			n.sleepStorage()
			storageTime += time.Since(t0)
			s.local = true
		} else {
			s.val, _ = recordValue(remote, s.key)
			if s.inbound {
				// Inbound data-fusion migration: the record becomes local
				// storage *regardless of abort* (§4.2) — the plan's
				// placement effects always happen.
				if s.val != nil {
					t0 := time.Now()
					n.store.Write(s.key, s.val)
					n.sleepStorage()
					storageTime += time.Since(t0)
					migBytes += int64(len(s.val))
				}
				s.local = true
			}
		}
		s.orig = s.val
	}
	// Non-access eviction arrivals handled exactly like at any other node.
	for _, k := range role.insertArrivals {
		if v, ok := recordValue(remote, k); ok && v != nil {
			t0 := time.Now()
			n.store.Write(k, v)
			n.sleepStorage()
			storageTime += time.Since(t0)
			migBytes += int64(len(v))
		}
	}
	if inbound || len(role.insertArrivals) > 0 {
		n.cluster.collector.RecordMigrationBytes(int(migBytes))
		n.cluster.tracer.Emit(n.id, req.ID, telemetry.PhaseMigratedIn, migBytes)
	}

	n.execute(ctx, req)
	storageTime += ctx.storageTime
	if ctx.aborted && n.cluster.accountOnce(req.ID) {
		n.cluster.collector.RecordAbort()
	}

	// Write-backs: final values on commit, original values on abort (the
	// owner still holds the key and must be released by this message).
	// One message per owner, in order of each owner's first written key.
	if len(rt.WriteBack) > 0 {
		var wb []ownedRecord
		for _, k := range writes {
			if !slices.Contains(rt.WriteBack, k) {
				continue
			}
			s := ctx.slot(k)
			v := s.orig
			if !ctx.aborted && s.buffered {
				v = s.val
			}
			wb = append(wb, ownedRecord{owner: rt.Owners.Get(k), rec: network.Record{Key: k, Value: v}})
		}
		for i, o := range wb {
			if slices.ContainsFunc(wb[:i], func(p ownedRecord) bool { return p.owner == o.owner }) {
				continue
			}
			var recs []network.Record
			for _, p := range wb[i:] {
				if p.owner == o.owner {
					recs = append(recs, p.rec)
				}
			}
			_ = n.cluster.tr.Send(network.Message{
				From: n.id, To: o.owner, Type: network.MsgWriteBack,
				Txn: req.ID, Records: recs,
			})
		}
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

// ownedRecord is one write-back record with the node it goes back to.
type ownedRecord struct {
	owner tx.NodeID
	rec   network.Record
}

// runWriter executes the transaction logic at one of Calvin's
// multi-master writers: it has all read values (local + broadcast) and
// applies only the writes it owns.
func (n *Node) runWriter(j *job) (time.Duration, bool) {
	var storageTime time.Duration
	rt, req := j.rt, j.rt.Txn
	ctx := j.ctx
	for i := range ctx.view {
		s := &ctx.view[i]
		if rt.Owners.Get(s.key) == n.id {
			t0 := time.Now()
			s.val, _ = n.store.Read(s.key)
			n.sleepStorage()
			storageTime += time.Since(t0)
			s.local = true
		} else {
			s.val, _ = recordValue(j.remote, s.key)
		}
		s.orig = s.val
	}
	n.execute(ctx, req)
	storageTime += ctx.storageTime
	if ctx.aborted && n.isCommitter(rt) && n.cluster.accountOnce(req.ID) {
		n.cluster.collector.RecordAbort()
	}
	return storageTime, ctx.aborted
}

// execute runs req's procedure against ctx's view, charging ExecCost, and
// rolls back its local writes if it aborted.
func (n *Node) execute(ctx *execCtx, req *tx.Request) {
	ctx.undo.Reset(n.store, len(req.WriteSet()))
	execStart := time.Now()
	req.Proc.Execute(ctx)
	if d := n.cluster.cfg.ExecCost; d > 0 {
		time.Sleep(d) // simulated CPU work while holding the executor slot
	}
	n.cluster.collector.AddBusy(int(n.id), time.Since(execStart))
	if ctx.aborted {
		ctx.undo.Rollback()
	} else {
		ctx.undo.Discard()
	}
}

// viewSlot is one access key in an executing role's value view: the value
// the procedure sees, the value it started from, whether its record
// migrates into this master from elsewhere, whether the key is (or becomes)
// local storage here — writes then go through the undo log, which captures
// the before-image on the first — and whether a write to it was buffered
// for a write-back instead.
type viewSlot struct {
	key       tx.Key
	val, orig []byte
	inbound   bool
	local     bool
	captured  bool
	buffered  bool
}

// execCtx implements tx.ExecCtx for an executing role. Reads come from
// the assembled value view; writes go through the undo log when the key
// is (or becomes) local, and are buffered in the view otherwise. A write
// to a key outside the access set is buffered in extra, which nothing
// sends anywhere.
type execCtx struct {
	node        *Node
	view        []viewSlot
	undo        storage.UndoLog
	extra       map[tx.Key][]byte
	aborted     bool
	storageTime time.Duration
}

// slot returns k's view slot, or nil if k is outside the access set. The
// view is in access-set order, which is sorted.
func (c *execCtx) slot(k tx.Key) *viewSlot {
	i, ok := slices.BinarySearchFunc(c.view, k, func(s viewSlot, k tx.Key) int { return cmp.Compare(s.key, k) })
	if !ok {
		return nil
	}
	return &c.view[i]
}

// Read implements tx.ExecCtx.
func (c *execCtx) Read(k tx.Key) []byte {
	if s := c.slot(k); s != nil {
		return s.val
	}
	return c.extra[k]
}

// Write implements tx.ExecCtx.
func (c *execCtx) Write(k tx.Key, v []byte) {
	if c.aborted {
		return
	}
	s := c.slot(k)
	switch {
	case s == nil:
		if c.extra == nil {
			c.extra = make(map[tx.Key][]byte, 1)
		}
		c.extra[k] = v
	case s.local:
		s.val = v
		t0 := time.Now()
		if s.captured {
			c.node.store.Write(k, v)
		} else {
			c.undo.Write(k, v)
			s.captured = true
		}
		c.node.sleepStorage()
		c.storageTime += time.Since(t0)
	default:
		s.val, s.buffered = v, true
	}
}

// Abort implements tx.ExecCtx.
func (c *execCtx) Abort(string) { c.aborted = true }

// Aborted implements tx.ExecCtx.
func (c *execCtx) Aborted() bool { return c.aborted }
