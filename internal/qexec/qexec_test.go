package qexec

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/lock"
	"hermes/internal/tx"
)

func newTest(t *testing.T) *Executor {
	t.Helper()
	e := New(Config{})
	t.Cleanup(e.Close)
	return e
}

// admit admits one transaction and returns a channel its OnReady closes.
func admit(e *Executor, id tx.TxnID, shared, excl []tx.Key) <-chan struct{} {
	done := make(chan struct{})
	e.AdmitBatch([]*Op{{ID: id, Shared: shared, Excl: excl, OnReady: func() { close(done) }}})
	return done
}

func granted(g <-chan struct{}) bool {
	select {
	case <-g:
		return true
	case <-time.After(2 * time.Second):
		return false
	}
}

func notGranted(g <-chan struct{}) bool {
	select {
	case <-g:
		return false
	case <-time.After(20 * time.Millisecond):
		return true
	}
}

// waitDrained waits for the asynchronous releases to empty every queue.
func waitDrained(t *testing.T, e *Executor) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for e.QueuedKeys() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("QueuedKeys = %d after all releases", e.QueuedKeys())
		}
		time.Sleep(time.Millisecond)
	}
}

// barrier returns once the worker has drained what was pushed to it
// before the call, including every OnReady those messages triggered.
func barrier(e *Executor) {
	done := make(chan struct{})
	e.Submit(func() { close(done) })
	<-done
}

func TestZeroKeyGrantsImmediately(t *testing.T) {
	e := newTest(t)
	if !granted(admit(e, 1, nil, nil)) {
		t.Fatal("empty key set not granted")
	}
	e.Release(1)
}

func TestExclusiveSerializesInTotalOrder(t *testing.T) {
	e := newTest(t)
	g1 := admit(e, 1, nil, []tx.Key{10})
	g2 := admit(e, 2, nil, []tx.Key{10})
	if !granted(g1) {
		t.Fatal("first exclusive not granted")
	}
	if !notGranted(g2) {
		t.Fatal("second exclusive granted while first held")
	}
	e.Release(1)
	if !granted(g2) {
		t.Fatal("second exclusive not granted after release")
	}
	e.Release(2)
}

func TestSharedPrefixGrantedTogether(t *testing.T) {
	e := newTest(t)
	admit(e, 1, nil, []tx.Key{5})
	g2 := admit(e, 2, []tx.Key{5}, nil)
	g3 := admit(e, 3, []tx.Key{5}, nil)
	g4 := admit(e, 4, nil, []tx.Key{5})
	e.Release(1)
	if !granted(g2) || !granted(g3) {
		t.Fatal("shared prefix not granted together after writer released")
	}
	if !notGranted(g4) {
		t.Fatal("writer granted alongside readers")
	}
	e.Release(2)
	e.Release(3)
	if !granted(g4) {
		t.Fatal("writer not granted after readers released")
	}
	e.Release(4)
}

func TestMultiKeyRunsOnceAfterLastGrant(t *testing.T) {
	// Transaction 4's keys queue behind three different predecessors, two
	// writers and a reader under its write; it must run exactly once, and
	// only after the last of them has released.
	e := newTest(t)
	admit(e, 1, nil, []tx.Key{1})
	admit(e, 2, nil, []tx.Key{2})
	admit(e, 3, []tx.Key{3}, nil)
	var runs atomic.Int32
	ran := make(chan struct{})
	e.AdmitBatch([]*Op{{ID: 4, Shared: []tx.Key{2}, Excl: []tx.Key{1, 3, 5}, OnReady: func() {
		if runs.Add(1) == 1 {
			close(ran)
		}
	}}})
	for _, id := range []tx.TxnID{2, 1} {
		e.Release(id)
		if !notGranted(ran) {
			t.Fatalf("txn 4 ran after txn %d released, while txn 3 still holds a key", id)
		}
	}
	e.Release(3)
	if !granted(ran) {
		t.Fatal("txn 4 not granted after its last predecessor released")
	}
	barrier(e)
	if n := runs.Load(); n != 1 {
		t.Fatalf("txn 4 ran %d times, want once", n)
	}
	e.Release(4)
	waitDrained(t, e)
}

func TestKeyInBothSetsIsExclusive(t *testing.T) {
	e := newTest(t)
	admit(e, 1, []tx.Key{7}, []tx.Key{7})
	g2 := admit(e, 2, []tx.Key{7}, nil)
	if !notGranted(g2) {
		t.Fatal("reader granted while read-write key held exclusively")
	}
	e.Release(1)
	if !granted(g2) {
		t.Fatal("reader blocked after release")
	}
	e.Release(2)
}

func TestInlineOnReadyRunsInAdmissionOrderPerKey(t *testing.T) {
	// Inline transactions on the same key must observe each other's writes
	// in total order even though they run on the worker goroutine.
	e := newTest(t)
	const n = 200
	var mu sync.Mutex
	var order []int
	ops := make([]*Op, n)
	for i := 0; i < n; i++ {
		i := i
		id := tx.TxnID(i + 1)
		ops[i] = &Op{
			ID:   id,
			Excl: []tx.Key{42},
			OnReady: func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				e.Release(id)
			},
		}
	}
	e.AdmitBatch(ops)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := len(order)
		mu.Unlock()
		if got == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d inline ops ran", got, n)
		}
		time.Sleep(time.Millisecond)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline op %d ran at position %d: per-key order violated", v, i)
		}
	}
}

func TestInlineAndGoroutinePathsShareKeyOrder(t *testing.T) {
	// Alternate transactions whose OnReady runs inline on the worker
	// with transactions whose OnReady hands the work to a goroutine that
	// releases later — the engine's two dispatch paths. The observed
	// sequence on the shared key must be the admission (total) order.
	e := newTest(t)
	const n = 100
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(n)
	ops := make([]*Op, n)
	for i := 0; i < n; i++ {
		i := i
		id := tx.TxnID(i + 1)
		run := func() {
			defer wg.Done()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			e.Release(id)
		}
		ops[i] = &Op{ID: id, Excl: []tx.Key{9}, OnReady: run}
		if i%2 == 1 {
			ops[i].OnReady = func() { go run() }
		}
	}
	e.AdmitBatch(ops)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("not every transaction ran")
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("op %d observed at position %d: mixed-path key order violated", v, i)
		}
	}
}

func TestOutstandingAndQueuedKeysDrain(t *testing.T) {
	e := newTest(t)
	g := admit(e, 1, []tx.Key{1, 2}, []tx.Key{3})
	// Outstanding counts the admission before any worker has seen it.
	if got := e.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d while admitted, want 1", got)
	}
	if !granted(g) {
		t.Fatal("not granted")
	}
	e.Release(1)
	if got := e.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after release, want 0", got)
	}
	waitDrained(t, e)
}

func TestReleaseUnknownIsNoop(t *testing.T) {
	e := newTest(t)
	e.Release(42)
	if e.QueuedKeys() != 0 || e.Outstanding() != 0 {
		t.Fatal("phantom queue after releasing unknown txn")
	}
}

func TestDuplicateAdmitPanics(t *testing.T) {
	e := newTest(t)
	admit(e, 1, nil, []tx.Key{1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate admission")
		}
	}()
	admit(e, 1, nil, []tx.Key{2})
}

func TestCloseWhilePendingDoesNotHang(t *testing.T) {
	e := New(Config{})
	admit(e, 1, nil, []tx.Key{1})
	admit(e, 2, nil, []tx.Key{1}) // blocked behind 1, never released
	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with pending admissions")
	}
}

func TestConcurrentAdmitReleaseNoLostGrants(t *testing.T) {
	// Randomized conflict workload mirroring the lock.Manager stress test:
	// single admitter in total order, each grant handed to a goroutine that
	// releases later, no exclusive overlap, everything eventually granted.
	e := newTest(t)
	rng := rand.New(rand.NewSource(7))
	const txns = 500
	var wg sync.WaitGroup
	var mu sync.Mutex
	holders := map[tx.Key]int{}
	var violation atomic.Bool

	wg.Add(txns)
	for i := 1; i <= txns; i++ {
		id := tx.TxnID(i)
		nKeys := 1 + rng.Intn(4)
		var excl []tx.Key
		for k := 0; k < nKeys; k++ {
			excl = append(excl, tx.Key(rng.Intn(20)))
		}
		excl = tx.NormalizeKeys(excl)
		holdFor := time.Duration(rng.Int63n(100)) * time.Microsecond
		hold := func() {
			defer wg.Done()
			mu.Lock()
			for _, k := range excl {
				holders[k]++
				if holders[k] > 1 {
					violation.Store(true)
				}
			}
			mu.Unlock()
			time.Sleep(holdFor)
			mu.Lock()
			for _, k := range excl {
				holders[k]--
			}
			mu.Unlock()
			e.Release(id)
		}
		e.AdmitBatch([]*Op{{ID: id, Excl: excl, OnReady: func() { go hold() }}})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: not all transactions granted")
	}
	if violation.Load() {
		t.Fatal("two exclusive holders overlapped on a key")
	}
	waitDrained(t, e)
}

// TestGrantOrderMatchesLockManager is the differential test against the
// conservative ordered lock manager, kept as the reference oracle: seeded
// random batches of shared/exclusive key sets go through AdmitBatch and
// through lock.Manager, both sides release in the same seeded order, and
// after every admission and every release the set of newly granted
// transactions must be identical. Equal steps mean equal per-key grant
// sequences, which is all final state depends on.
func TestGrantOrderMatchesLockManager(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { differential(t, seed) })
	}
}

func differential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	e := newTest(t)
	m := lock.NewManager()

	var mu sync.Mutex
	var qGranted []tx.TxnID // appended by OnReady on the worker
	lGrants := map[tx.TxnID]lock.Granted{}
	var held []tx.TxnID // granted, not yet released, ascending
	next := tx.TxnID(1)

	randKeys := func() []tx.Key {
		ks := make([]tx.Key, rng.Intn(4))
		for i := range ks {
			ks[i] = tx.MakeKey(0, uint64(rng.Intn(12)))
		}
		return tx.NormalizeKeys(ks)
	}
	// step compares what each side granted since the last step.
	step := func(what string) {
		t.Helper()
		barrier(e)
		mu.Lock()
		q := qGranted
		qGranted = nil
		mu.Unlock()
		var l []tx.TxnID
		for id, g := range lGrants {
			select {
			case <-g.Done():
				l = append(l, id)
				delete(lGrants, id)
			default:
			}
		}
		slices.Sort(q)
		slices.Sort(l)
		if !slices.Equal(q, l) {
			t.Fatalf("seed %d, %s: qexec granted %v, lock.Manager granted %v", seed, what, q, l)
		}
		held = append(held, q...)
		slices.Sort(held)
	}

	for batches := 0; batches < 40 || len(held) > 0; {
		if batches < 40 && (len(held) == 0 || rng.Intn(3) == 0) {
			batches++
			ops := make([]*Op, 1+rng.Intn(6))
			for i := range ops {
				id := next
				next++
				shared, excl := randKeys(), randKeys()
				ops[i] = &Op{ID: id, Shared: shared, Excl: excl, OnReady: func() {
					mu.Lock()
					qGranted = append(qGranted, id)
					mu.Unlock()
				}}
				lGrants[id] = m.Acquire(id, shared, excl)
			}
			e.AdmitBatch(ops)
			step(fmt.Sprintf("batch %d admitted", batches))
			continue
		}
		i := rng.Intn(len(held))
		id := held[i]
		held = append(held[:i], held[i+1:]...)
		e.Release(id)
		m.Release(id)
		step(fmt.Sprintf("txn %d released", id))
	}
	if len(lGrants) != 0 {
		t.Fatalf("seed %d: %d transactions never granted", seed, len(lGrants))
	}
	waitDrained(t, e)
	if m.QueuedKeys() != 0 || e.Outstanding() != 0 {
		t.Fatalf("seed %d: queues left behind", seed)
	}
}

func BenchmarkAdmitRelease(b *testing.B) {
	e := New(Config{})
	defer e.Close()
	keys := []tx.Key{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tx.TxnID(i + 1)
		<-admit(e, id, keys[:2], keys[2:])
		e.Release(id)
	}
}

// TestReuseUnderConcurrentPushes stresses the buffers the worker recycles
// — the drained inbox and emptied key queues — while Release and Submit
// push from other goroutines and from inside OnReady on the worker itself.
// Every grant and every submitted continuation must run exactly once, no
// two exclusive holders of a key may overlap, and once the worker is
// joined every recycled queue and spare inbox must be empty and hold no
// pointers.
func TestReuseUnderConcurrentPushes(t *testing.T) {
	e := New(Config{})
	const txns = 4000
	rng := rand.New(rand.NewSource(5))
	var grants, runs [txns + 1]atomic.Int32
	var holders [8]atomic.Int32
	var overlap atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2 * txns) // one grant and one submitted continuation each

	// A bystander keeps Submit traffic flowing into the inbox.
	stop := make(chan struct{})
	var bystander sync.WaitGroup
	var strays atomic.Int64
	bystander.Add(1)
	go func() {
		defer bystander.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.Submit(func() { strays.Add(-1) })
			strays.Add(1)
			if i%64 == 0 {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()

	// A window of in-flight transactions keeps queues short enough to be
	// recycled.
	window := make(chan struct{}, 32)
	id := tx.TxnID(1)
	for id <= txns {
		ops := make([]*Op, 1+rng.Intn(8))
		for i := range ops {
			if id > txns {
				ops = ops[:i]
				break
			}
			window <- struct{}{}
			tid := id
			id++
			var excl, shared []tx.Key
			for k := rng.Intn(3); k >= 0; k-- {
				excl = append(excl, tx.Key(rng.Intn(len(holders))))
			}
			excl = tx.NormalizeKeys(excl)
			if rng.Intn(2) == 0 {
				shared = []tx.Key{tx.Key(len(holders) + rng.Intn(4))}
			}
			inline := rng.Intn(2) == 0
			ops[i] = &Op{ID: tid, Shared: shared, Excl: excl, OnReady: func() {
				if grants[tid].Add(1) == 1 {
					wg.Done()
				}
				for _, k := range excl {
					if holders[k].Add(1) != 1 {
						overlap.Store(true)
					}
				}
				finish := func() {
					if runs[tid].Add(1) == 1 {
						wg.Done()
					}
					for _, k := range excl {
						holders[k].Add(-1)
					}
					e.Release(tid)
					<-window
				}
				if inline {
					// Self-push from inside OnReady on the worker.
					e.Submit(finish)
					return
				}
				go e.Submit(finish)
			}}
		}
		e.AdmitBatch(ops)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("not every transaction was granted and continued")
	}
	close(stop)
	bystander.Wait()
	waitDrained(t, e)
	barrier(e)
	e.Close()

	for i := 1; i <= txns; i++ {
		if g, r := grants[i].Load(), runs[i].Load(); g != 1 || r != 1 {
			t.Fatalf("transaction %d granted %d times, continued %d times; want once each", i, g, r)
		}
	}
	if overlap.Load() {
		t.Fatal("two exclusive holders overlapped on a key")
	}
	if n := strays.Load(); n != 0 {
		t.Fatalf("%d bystander continuations did not run exactly once", n)
	}
	if e.Outstanding() != 0 {
		t.Fatalf("%d transactions still registered", e.Outstanding())
	}
	for _, q := range e.free {
		if len(q.q) != 0 || q.head != 0 {
			t.Fatalf("recycled queue has len %d, head %d", len(q.q), q.head)
		}
		for _, en := range q.q[:cap(q.q)] {
			if en != (entry{}) {
				t.Fatalf("recycled queue holds a stale entry %+v", en)
			}
		}
	}
	for _, m := range e.spare[:cap(e.spare)] {
		if m.st != nil || m.release || m.run != nil {
			t.Fatal("spare inbox holds a stale message")
		}
	}
	if len(e.free) == 0 {
		t.Fatal("no key queue was recycled")
	}
}
