// Package qexec implements queue-oriented zero-lock transaction admission
// in the style of QueCC (*A Queue-oriented Transaction Processing
// Paradigm*): because the router already knows the total order and every
// record's placement before execution, conflict resolution can be *planned*
// instead of *discovered*. At schedule time the single scheduler goroutine
// partitions each sealed batch's operations into deterministic per-key
// queues, each key hash-bucketed into a range owned by exactly one worker
// goroutine. Workers drain their buckets in total order with no lock table,
// no per-key mutex, and no cross-worker coordination — the only cross-bucket
// mechanism is a rendezvous counter per multi-key transaction, preset at
// planning time from the plan's read/write sets and decremented atomically
// as each bucket grants its share of the keys. The worker that performs the
// final decrement calls the transaction's OnReady; which worker that is may
// vary between runs, but the *per-key order* of operations — the only thing
// final state depends on — is fixed by the total order. Release retires the
// transaction's queue entries and promotes successors.
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
// which the bucket worker that completes the rendezvous calls once every
// key is granted. AdmitBatch keeps neither the Op nor its key slices, so a
// caller may reuse both for its next batch.
type Op struct {
	ID      tx.TxnID
	Shared  []tx.Key
	Excl    []tx.Key
	OnReady func()
}

// Config sizes the executor.
type Config struct {
	// Workers is the number of bucket-worker goroutines; each owns a
	// static hash range of the keyspace. Defaults to 4.
	Workers int
	// AfterChunk, if set, runs on a bucket worker each time it has handled
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

// part is the slice of a transaction's keys owned by one worker.
type part struct {
	worker int
	keys   []keyRef
}

// txnState is one in-flight transaction: the rendezvous counter preset at
// planning time, the continuation, and the per-worker partition used at
// release. A batch's states, parts and keyRefs are three slabs allocated
// by AdmitBatch; each transaction's parts and each part's keys are
// three-index slices of them (cap == len), so nothing appends into a
// neighbour.
type txnState struct {
	pending atomic.Int32
	onReady func()
	parts   []part
}

// message is one unit of worker inbox traffic: an admission of the
// transaction's keys in this worker's bucket (release=false), a retirement
// of those keys (release=true), or a bare continuation (run != nil) posted
// by Submit.
type message struct {
	st      *txnState
	keys    []keyRef
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
// pointers and goes on its worker's free list with its capacity.
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

// worker owns a static bucket of the keyspace. Its inbox is a swap-out
// slice guarded by a mutex (two-phase: senders append, the worker swaps the
// whole slice out and drains it unlocked), so queue operations themselves
// run with zero shared-state contention. The two slices trade places: the
// drained one, cleared, is the next inbox.
type worker struct {
	e     *Executor
	mu    sync.Mutex
	inbox []message
	// spare is the inbox drained last, emptied and cleared; owned by the
	// worker goroutine.
	spare  []message
	wake   chan struct{}
	queues map[tx.Key]*keyQueue
	// free holds emptied queues for reuse; owned by the worker goroutine.
	free []*keyQueue
	// queued mirrors len(queues) for lock-free QueuedKeys reads.
	queued  atomic.Int64
	drained atomic.Int64
}

// Executor is one node's queue-oriented admission engine.
type Executor struct {
	workers    []*worker
	afterChunk func()
	// pending, keys and ends are AdmitBatch's scratch — its per-worker
	// messages, and the batch's keys with each transaction's end among
	// them; only the scheduler goroutine touches them.
	pending [][]message
	keys    []workerKey
	ends    []int
	// regMu guards reg and the running/closed life cycle.
	regMu   sync.Mutex
	reg     map[tx.TxnID]*txnState
	running bool
	closed  bool
	quit    chan struct{}
	wg      sync.WaitGroup
}

// New returns an executor with cfg.Workers bucket workers. Their
// goroutines start with the first admitted batch, so an executor that is
// set up and torn down without admitting anything costs none.
func New(cfg Config) *Executor {
	n := cfg.Workers
	if n <= 0 {
		n = 4
	}
	e := &Executor{quit: make(chan struct{}), reg: make(map[tx.TxnID]*txnState), afterChunk: cfg.AfterChunk}
	e.workers = make([]*worker, n)
	e.pending = make([][]message, n)
	for i := range e.workers {
		w := &worker{
			e:      e,
			wake:   make(chan struct{}, 1),
			queues: make(map[tx.Key]*keyQueue),
		}
		e.workers[i] = w
	}
	return e
}

// splitmix64 is the finalizer of the splitmix64 PRNG — a cheap, well-mixed
// hash so adjacent row keys spread across buckets instead of clustering.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (e *Executor) bucket(k tx.Key) int {
	return int(splitmix64(uint64(k)) % uint64(len(e.workers)))
}

// workerKey is one key of a transaction being planned, with its bucket.
type workerKey struct {
	worker int
	ref    keyRef
}

// AdmitBatch admits ops — which must be in ascending transaction-ID order,
// the total order — into the per-key queues. It must be called from a
// single scheduler goroutine.
func (e *Executor) AdmitBatch(ops []*Op) {
	// Plan first, into the executor's scratch: each transaction's
	// effective key set — exclusive first, then shared minus keys already
	// exclusive, the set lock.Manager admits — with each key's bucket, and
	// how many distinct buckets (parts) it spans. Transactions touch few
	// workers, so a scan beats a map.
	keys, ends := e.keys[:0], e.ends[:0]
	nparts := 0
	for _, op := range ops {
		k0 := len(keys)
		for _, k := range op.Excl {
			keys = append(keys, workerKey{e.bucket(k), keyRef{k: k, excl: true}})
		}
		for _, k := range op.Shared {
			if !tx.ContainsKey(op.Excl, k) {
				keys = append(keys, workerKey{e.bucket(k), keyRef{k: k}})
			}
		}
		for j := k0; j < len(keys); j++ {
			if firstOfWorker(keys[k0:], j-k0) {
				nparts++
			}
		}
		ends = append(ends, len(keys))
	}
	e.keys, e.ends = keys, ends
	states := make([]txnState, len(ops))
	parts := make([]part, 0, nparts)
	refs := make([]keyRef, 0, len(keys))
	pending := e.pending
	for i := range pending {
		pending[i] = pending[i][:0]
	}
	// Batch per-worker messages so each worker is woken at most once, and
	// register the whole batch under one registry lock: Release runs
	// concurrently but only ever looks up IDs already registered, so
	// holding regMu across the loop costs nothing and saves two atomic
	// operations per transaction.
	e.regMu.Lock()
	if !e.running && !e.closed {
		e.running = true
		for _, w := range e.workers {
			e.wg.Add(1)
			go w.loop()
		}
	}
	k0 := 0
	for i, op := range ops {
		st := &states[i]
		st.onReady = op.OnReady
		if _, dup := e.reg[op.ID]; dup {
			e.regMu.Unlock()
			panic("qexec: duplicate admission for transaction")
		}
		e.reg[op.ID] = st
		own := keys[k0:ends[i]]
		k0 = ends[i]
		if len(own) == 0 {
			// No keys anywhere: rendezvous is trivially complete. Route
			// through worker 0 so OnReady still runs on a worker
			// goroutine, in admission order.
			st.pending.Store(1)
			pending[0] = append(pending[0], message{st: st})
			continue
		}
		st.pending.Store(int32(len(own)))
		// One part per worker in order of first appearance, each holding
		// that worker's keys in key-set order, carved from the batch's
		// slabs.
		p0 := len(parts)
		for j, wk := range own {
			if !firstOfWorker(own, j) {
				continue
			}
			r0 := len(refs)
			for _, o := range own[j:] {
				if o.worker == wk.worker {
					refs = append(refs, o.ref)
				}
			}
			parts = append(parts, part{worker: wk.worker, keys: refs[r0:len(refs):len(refs)]})
		}
		st.parts = parts[p0:len(parts):len(parts)]
		for _, p := range st.parts {
			pending[p.worker] = append(pending[p.worker], message{st: st, keys: p.keys})
		}
	}
	e.regMu.Unlock()
	for wi, msgs := range pending {
		if len(msgs) > 0 {
			e.workers[wi].push(msgs)
			clear(msgs)
		}
	}
}

// firstOfWorker reports whether keys[j] is the first of keys in its
// bucket.
func firstOfWorker(keys []workerKey, j int) bool {
	for _, o := range keys[:j] {
		if o.worker == keys[j].worker {
			return false
		}
	}
	return true
}

// Release retires every queue entry of transaction id and promotes
// successors. Releasing an unknown id is a no-op. Safe to call from any
// goroutine, including from inside an OnReady closure running on a bucket
// worker (self-push is fine because the worker drains a swapped-out
// inbox).
func (e *Executor) Release(id tx.TxnID) {
	e.regMu.Lock()
	st, ok := e.reg[id]
	if ok {
		delete(e.reg, id)
	}
	e.regMu.Unlock()
	if !ok {
		return
	}
	if len(st.parts) == 0 {
		// Zero-key transaction admitted via worker 0.
		e.workers[0].push1(message{st: st, release: true})
		return
	}
	for _, p := range st.parts {
		e.workers[p.worker].push1(message{st: st, keys: p.keys, release: true})
	}
}

// Submit runs fn on the bucket worker that owns id's hash. This is the
// mailbox-continuation path: a transaction that went dormant waiting for
// inbound records re-enters the worker pool when they arrive, instead of
// holding a parked goroutine the whole time. Ordering relative to other
// work on that worker is arbitrary — by the time a continuation is
// submitted, its admission rendezvous has already fixed everything order
// depends on. fn is dropped if the executor is closed before a worker
// drains it (crashed-node semantics, like abandoned queue entries).
func (e *Executor) Submit(id tx.TxnID, fn func()) {
	e.workers[splitmix64(uint64(id))%uint64(len(e.workers))].push1(message{run: fn})
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
// bucket workers may not have queued its keys yet — so a quiescence check
// that has seen a batch admitted cannot miss its transactions.
func (e *Executor) Outstanding() int {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	return len(e.reg)
}

// QueuedKeys reports the number of keys with a non-empty queue across all
// buckets (the admission-depth gauge).
func (e *Executor) QueuedKeys() int {
	var n int64
	for _, w := range e.workers {
		n += w.queued.Load()
	}
	return int(n)
}

// Close stops the bucket workers and joins them. Entries still queued are
// abandoned — the same semantics as a crashed node's lock table.
func (e *Executor) Close() {
	e.regMu.Lock()
	if !e.closed {
		e.closed = true
		close(e.quit)
	}
	e.regMu.Unlock()
	e.wg.Wait()
}

// Workers reports the worker count (for gauges).
func (e *Executor) Workers() int { return len(e.workers) }

// Drained reports how many transactions worker w has completed the
// rendezvous for (for per-worker gauges).
func (e *Executor) Drained(w int) int64 { return e.workers[w].drained.Load() }

// push appends msgs to the worker's inbox and wakes it.
func (w *worker) push(msgs []message) {
	w.mu.Lock()
	w.inbox = append(w.inbox, msgs...)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// push1 is push for a single message, without the slice allocation —
// Release sends one message per worker per transaction.
func (w *worker) push1(m message) {
	w.mu.Lock()
	w.inbox = append(w.inbox, m)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *worker) loop() {
	defer w.e.wg.Done()
	for {
		select {
		case <-w.e.quit:
			return
		case <-w.wake:
		}
		for {
			w.mu.Lock()
			batch := w.inbox
			w.inbox = w.spare
			w.mu.Unlock()
			w.spare = nil
			if len(batch) == 0 {
				w.spare = batch
				break
			}
			for _, m := range batch {
				select {
				case <-w.e.quit:
					return
				default:
				}
				switch {
				case m.run != nil:
					m.run()
				case m.release:
					w.release(m)
				default:
					w.admit(m)
				}
			}
			if w.e.afterChunk != nil {
				w.e.afterChunk()
			}
			clear(batch)
			w.spare = batch[:0]
		}
	}
}

// admit appends the transaction's entries to this bucket's key queues and
// promotes each key, mirroring lock.Manager's grant rule exactly: the head
// entry is granted, plus a contiguous shared prefix.
func (w *worker) admit(m message) {
	if len(m.keys) == 0 {
		// Zero-key rendezvous marker.
		w.granted(m.st)
		return
	}
	for _, kr := range m.keys {
		q := w.queues[kr.k]
		if q == nil {
			if n := len(w.free); n > 0 {
				q = w.free[n-1]
				w.free[n-1] = nil
				w.free = w.free[:n-1]
			} else {
				q = &keyQueue{}
			}
			w.queues[kr.k] = q
			w.queued.Add(1)
		}
		q.q = append(q.q, entry{st: m.st, excl: kr.excl})
		w.promote(q)
	}
}

func (w *worker) promote(q *keyQueue) {
	for i := q.head; i < len(q.q); i++ {
		en := &q.q[i]
		if en.granted {
			continue
		}
		if i > q.head && (en.excl || q.q[i-1].excl) {
			break
		}
		en.granted = true
		w.granted(en.st)
		if en.excl {
			break
		}
	}
}

// granted records one key of st as held; the final decrement completes the
// rendezvous.
func (w *worker) granted(st *txnState) {
	if st.pending.Add(-1) == 0 {
		w.drained.Add(1)
		st.onReady()
	}
}

func (w *worker) release(m message) {
	if len(m.keys) == 0 {
		return
	}
	for _, kr := range m.keys {
		q := w.queues[kr.k]
		if q == nil {
			continue
		}
		q.pop(m.st)
		if q.empty() {
			delete(w.queues, kr.k)
			w.queued.Add(-1)
			if cap(q.q) <= maxFreeQueueCap {
				q.q, q.head = q.q[:0], 0
				w.free = append(w.free, q)
			}
			continue
		}
		w.promote(q)
	}
}
