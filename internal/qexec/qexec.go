// Package qexec implements queue-oriented zero-lock transaction admission
// in the style of QueCC (*A Queue-oriented Transaction Processing
// Paradigm*): because the router already knows the total order and every
// record's placement before execution, conflict resolution can be *planned*
// instead of *discovered*. At schedule time the single scheduler goroutine
// turns each sealed batch into entries on deterministic per-key queues,
// which one worker goroutine drains in total order with no lock table and
// no per-key mutex. A transaction waits for every key of its plan's
// read/write sets: a count preset at planning time drops as the worker
// grants each key, and the grant that empties it calls the transaction's
// OnReady. Release retires the transaction's queue entries and promotes
// successors.
//
// The grant rule is that of Calvin's conservative ordered lock manager
// (internal/lock), which the package tests keep as a differential oracle.
package qexec

import (
	"sync"
	"sync/atomic"

	"hermes/internal/tx"
)

// Op is one transaction's admission request within a batch: the read
// (Shared) and write (Excl) key sets from the prescient plan, and OnReady,
// which the worker calls once every key is granted. AdmitBatch keeps
// neither the Op nor its key slices, so a caller may reuse both for its
// next batch.
type Op struct {
	ID      tx.TxnID
	Shared  []tx.Key
	Excl    []tx.Key
	OnReady func()
}

// Config configures the executor.
type Config struct {
	// AfterChunk, if set, runs on the worker each time it has handled
	// every message of one inbox chunk (what one swap of its inbox took).
	// Work the chunk's OnReady and Submit calls deferred — a node's
	// outbound record pushes — is flushed here, once per chunk.
	AfterChunk func()
}

// keyRef is one key of a transaction's admission, with its mode.
type keyRef struct {
	k    tx.Key
	excl bool
}

// txnState is one in-flight transaction: its keys, how many of them are
// not yet granted, and the continuation. A batch's states and keyRefs are
// two slabs allocated by AdmitBatch; each transaction's keys are a
// three-index slice of the second (cap == len), so nothing appends into a
// neighbour. Once AdmitBatch has handed a state to the worker through the
// inbox, only the worker reads or writes pending.
type txnState struct {
	keys    []keyRef
	pending int
	onReady func()
}

// message is one unit of inbox traffic: an admission of a transaction's
// keys (release=false), a retirement of them (release=true), or a bare
// continuation (run != nil) posted by Submit.
type message struct {
	st      *txnState
	release bool
	run     func()
}

// entry is one queue slot on one key.
type entry struct {
	st      *txnState
	excl    bool
	granted bool
}

// keyQueue is a FIFO in total order. head indexes the logical front:
// releases almost always retire the front entry (transactions drain in
// total order), so popping advances head in O(1) instead of copying the
// tail down — on a hot key with a deep backlog the copy is quadratic in
// queue depth. The slice is compacted once head passes half its length.
// Every slot a pop vacates is zeroed, so an emptied queue holds no
// pointers and goes on the worker's free list with its capacity.
type keyQueue struct {
	q    []entry
	head int
}

// pop removes st's entry if present. Caller must check for emptiness
// (head == len(q)) afterwards.
func (q *keyQueue) pop(st *txnState) {
	for i := q.head; i < len(q.q); i++ {
		if q.q[i].st != st {
			continue
		}
		if i == q.head {
			q.q[i] = entry{}
			q.head++
			if q.head > 32 && q.head*2 >= len(q.q) {
				n := copy(q.q, q.q[q.head:])
				clear(q.q[n:])
				q.q = q.q[:n]
				q.head = 0
			}
		} else {
			copy(q.q[i:], q.q[i+1:])
			q.q[len(q.q)-1] = entry{}
			q.q = q.q[:len(q.q)-1]
		}
		return
	}
}

func (q *keyQueue) empty() bool { return q.head == len(q.q) }

// maxFreeQueueCap bounds the capacity a recycled keyQueue keeps: a queue
// that grew behind a hot key's backlog is left to the collector rather
// than handed to the next cold key.
const maxFreeQueueCap = 64

// Executor is one node's queue-oriented admission engine: the per-key
// queues and the one worker goroutine that owns them. The inbox is a
// swap-out slice guarded by a mutex (two-phase: senders append, the worker
// swaps the whole slice out and drains it unlocked), so queue operations
// themselves run with zero shared-state contention. The two slices trade
// places: the drained one, cleared, is the next inbox.
type Executor struct {
	afterChunk func()

	mu    sync.Mutex
	inbox []message
	wake  chan struct{}
	// spare, queues and free are owned by the worker goroutine: spare is
	// the inbox drained last, emptied and cleared; free holds emptied
	// queues for reuse.
	spare  []message
	queues map[tx.Key]*keyQueue
	free   []*keyQueue
	// queued mirrors len(queues) for lock-free QueuedKeys reads; drained
	// counts the transactions whose every key the worker has granted.
	queued  atomic.Int64
	drained atomic.Int64

	// regMu guards reg and the running/closed life cycle.
	regMu   sync.Mutex
	reg     map[tx.TxnID]*txnState
	running bool
	closed  bool
	quit    chan struct{}
	wg      sync.WaitGroup
}

// New returns an executor. Its worker goroutine starts with the first
// admitted batch, so an executor that is set up and torn down without
// admitting anything costs none.
func New(cfg Config) *Executor {
	return &Executor{
		afterChunk: cfg.AfterChunk,
		wake:       make(chan struct{}, 1),
		queues:     make(map[tx.Key]*keyQueue),
		reg:        make(map[tx.TxnID]*txnState),
		quit:       make(chan struct{}),
	}
}

// AdmitBatch admits ops — which must be in ascending transaction-ID order,
// the total order — into the per-key queues. It must be called from a
// single scheduler goroutine.
func (e *Executor) AdmitBatch(ops []*Op) {
	// Plan first, outside every lock: each transaction's effective key
	// set — exclusive first, then shared minus keys already exclusive, the
	// set lock.Manager admits — carved from one slab, sized for key sets
	// that do not overlap.
	n := 0
	for _, op := range ops {
		n += len(op.Excl) + len(op.Shared)
	}
	states := make([]txnState, len(ops))
	refs := make([]keyRef, 0, n)
	for i, op := range ops {
		k0 := len(refs)
		for _, k := range op.Excl {
			refs = append(refs, keyRef{k: k, excl: true})
		}
		for _, k := range op.Shared {
			if !tx.ContainsKey(op.Excl, k) {
				refs = append(refs, keyRef{k: k})
			}
		}
		st := &states[i]
		st.keys = refs[k0:len(refs):len(refs)]
		// A transaction with no keys is granted by its admission alone,
		// so OnReady still runs on the worker, in admission order.
		st.pending = max(len(st.keys), 1)
		st.onReady = op.OnReady
	}
	// Register the whole batch under one registry lock: Release runs
	// concurrently but only ever looks up IDs already registered, so
	// holding regMu across the loop costs nothing.
	e.regMu.Lock()
	if !e.running && !e.closed {
		e.running = true
		e.wg.Add(1)
		go e.loop()
	}
	for i, op := range ops {
		if _, dup := e.reg[op.ID]; dup {
			e.regMu.Unlock()
			panic("qexec: duplicate admission for transaction")
		}
		e.reg[op.ID] = &states[i]
	}
	e.regMu.Unlock()
	// The whole batch enters the inbox at once and wakes the worker once.
	e.mu.Lock()
	for i := range states {
		e.inbox = append(e.inbox, message{st: &states[i]})
	}
	e.mu.Unlock()
	e.signal()
}

// Release retires every queue entry of transaction id and promotes
// successors. Releasing an unknown id is a no-op. Safe to call from any
// goroutine, including from inside an OnReady closure running on the
// worker (self-push is fine because the worker drains a swapped-out
// inbox).
func (e *Executor) Release(id tx.TxnID) {
	e.regMu.Lock()
	st, ok := e.reg[id]
	if ok {
		delete(e.reg, id)
	}
	e.regMu.Unlock()
	if ok {
		e.post(message{st: st, release: true})
	}
}

// Submit runs fn on the worker. This is the mailbox-continuation path: a
// transaction that went dormant waiting for inbound records re-enters the
// worker when they arrive, instead of holding a parked goroutine the whole
// time. Ordering relative to other work on the worker is arbitrary — by
// the time a continuation is submitted, its admission has already fixed
// everything order depends on. fn is dropped if the executor is closed
// before the worker drains it (crashed-node semantics, like abandoned
// queue entries).
func (e *Executor) Submit(fn func()) {
	e.post(message{run: fn})
}

// Registered reports whether transaction id is admitted and not yet
// released.
func (e *Executor) Registered(id tx.TxnID) bool {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	_, ok := e.reg[id]
	return ok
}

// Outstanding reports how many admitted transactions have not been
// released. An admission counts from the moment AdmitBatch returns — the
// worker may not have queued its keys yet — so a quiescence check that has
// seen a batch admitted cannot miss its transactions.
func (e *Executor) Outstanding() int {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	return len(e.reg)
}

// QueuedKeys reports the number of keys with a non-empty queue (the
// admission-depth gauge).
func (e *Executor) QueuedKeys() int { return int(e.queued.Load()) }

// Drained reports how many transactions the worker has granted every key
// of (the drain gauge).
func (e *Executor) Drained() int64 { return e.drained.Load() }

// Close stops the worker and joins it. Entries still queued are abandoned
// — the same semantics as a crashed node's lock table.
func (e *Executor) Close() {
	e.regMu.Lock()
	if !e.closed {
		e.closed = true
		close(e.quit)
	}
	e.regMu.Unlock()
	e.wg.Wait()
}

// post appends m to the inbox and wakes the worker.
func (e *Executor) post(m message) {
	e.mu.Lock()
	e.inbox = append(e.inbox, m)
	e.mu.Unlock()
	e.signal()
}

func (e *Executor) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

func (e *Executor) loop() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case <-e.wake:
		}
		for {
			e.mu.Lock()
			batch := e.inbox
			e.inbox = e.spare
			e.mu.Unlock()
			e.spare = nil
			if len(batch) == 0 {
				e.spare = batch
				break
			}
			for _, m := range batch {
				select {
				case <-e.quit:
					return
				default:
				}
				switch {
				case m.run != nil:
					m.run()
				case m.release:
					e.release(m.st)
				default:
					e.admit(m.st)
				}
			}
			if e.afterChunk != nil {
				e.afterChunk()
			}
			clear(batch)
			e.spare = batch[:0]
		}
	}
}

// admit appends the transaction's entries to its keys' queues and
// promotes each key, mirroring lock.Manager's grant rule exactly: the head
// entry is granted, plus a contiguous shared prefix.
func (e *Executor) admit(st *txnState) {
	if len(st.keys) == 0 {
		e.granted(st)
		return
	}
	for _, kr := range st.keys {
		q := e.queues[kr.k]
		if q == nil {
			if n := len(e.free); n > 0 {
				q = e.free[n-1]
				e.free[n-1] = nil
				e.free = e.free[:n-1]
			} else {
				q = &keyQueue{}
			}
			e.queues[kr.k] = q
			e.queued.Add(1)
		}
		q.q = append(q.q, entry{st: st, excl: kr.excl})
		e.promote(q)
	}
}

func (e *Executor) promote(q *keyQueue) {
	for i := q.head; i < len(q.q); i++ {
		en := &q.q[i]
		if en.granted {
			continue
		}
		if i > q.head && (en.excl || q.q[i-1].excl) {
			break
		}
		en.granted = true
		e.granted(en.st)
		if en.excl {
			break
		}
	}
}

// granted records one key of st as held; the last one makes st ready.
func (e *Executor) granted(st *txnState) {
	st.pending--
	if st.pending == 0 {
		e.drained.Add(1)
		st.onReady()
	}
}

func (e *Executor) release(st *txnState) {
	for _, kr := range st.keys {
		q := e.queues[kr.k]
		if q == nil {
			continue
		}
		q.pop(st)
		if q.empty() {
			delete(e.queues, kr.k)
			e.queued.Add(-1)
			if cap(q.q) <= maxFreeQueueCap {
				q.q, q.head = q.q[:0], 0
				e.free = append(e.free, q)
			}
			continue
		}
		e.promote(q)
	}
}
