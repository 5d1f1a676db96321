// Package fusion implements the fusion table (§3.1, §4.1): a bounded map
// from hot record keys to their current owner partition. Every scheduler
// holds a replica; because the prescient routing that mutates it is a
// deterministic function of the totally ordered input, the replicas stay
// identical with zero communication. When the table exceeds its capacity
// it evicts entries under a deterministic replacement policy (LRU or
// FIFO); evicted records must be migrated back to their home partitions,
// which the engine does by extending the write-set of the transaction
// being routed, exactly as §4.1 describes.
package fusion

import (
	"bytes"
	"encoding/gob"
	"hash/fnv"
	"sync/atomic"

	"hermes/internal/tx"
)

// Policy selects the deterministic replacement strategy.
type Policy uint8

const (
	// LRU evicts the least recently used entry (uses = Touch and Put).
	LRU Policy = iota
	// FIFO evicts the oldest inserted entry regardless of use.
	FIFO
)

// Entry is a (key, owner) pair, as returned by eviction.
type Entry struct {
	Key   tx.Key
	Owner tx.NodeID
}

// slot is one tracked entry in the table's slot array, linked into the
// replacement order by index (-1 = none). A free slot is linked through
// next alone.
type slot struct {
	entry      Entry
	prev, next int32
}

// Table is one replica of the fusion table. It is not safe for concurrent
// use: each scheduler mutates only its own replica, single-threaded, in
// total order.
//
// The table holds no pointers: the map goes from key to slot index, and
// the replacement order is an intrusive list threaded through the slot
// array by index, so a Put allocates nothing once the slot array and map
// have grown to capacity, and the collector never scans either.
type Table struct {
	capacity int
	policy   Policy
	m        map[tx.Key]int32
	slots    []slot
	// front is the most recent entry, back the eviction candidate; free
	// heads the list of vacated slots.
	front, back, free int32
	// evicted is Put's result buffer, reused across calls.
	evicted []Entry

	// stats counters are atomic only so telemetry gauges can read them
	// from other goroutines while the owning scheduler mutates the table;
	// they never influence table behavior.
	stats struct {
		size       atomic.Int64
		inserts    atomic.Int64
		evictions  atomic.Int64
		deletes    atomic.Int64
		ownerMoves atomic.Int64
	}
}

// Stats is a consistent-enough snapshot of the table's activity counters:
// occupancy, cumulative inserts/evictions/deletes, and owner moves
// (re-Put of a tracked key onto a different node — hot-set churn).
type Stats struct {
	Size       int64
	Inserts    int64
	Evictions  int64
	Deletes    int64
	OwnerMoves int64
}

// Stats returns the activity counters. Safe to call from any goroutine.
func (t *Table) Stats() Stats {
	return Stats{
		Size:       t.stats.size.Load(),
		Inserts:    t.stats.inserts.Load(),
		Evictions:  t.stats.evictions.Load(),
		Deletes:    t.stats.deletes.Load(),
		OwnerMoves: t.stats.ownerMoves.Load(),
	}
}

// New returns a table bounded to capacity entries (capacity ≤ 0 means
// unbounded, used by LEAP's ownership tracking which the paper notes has
// no size control).
func New(capacity int, policy Policy) *Table {
	return &Table{
		capacity: capacity,
		policy:   policy,
		m:        make(map[tx.Key]int32),
		front:    -1,
		back:     -1,
		free:     -1,
	}
}

// Len returns the number of tracked keys.
func (t *Table) Len() int { return len(t.m) }

// unlink removes slot i from the replacement order.
func (t *Table) unlink(i int32) {
	s := &t.slots[i]
	if s.prev >= 0 {
		t.slots[s.prev].next = s.next
	} else {
		t.front = s.next
	}
	if s.next >= 0 {
		t.slots[s.next].prev = s.prev
	} else {
		t.back = s.prev
	}
}

// pushFront links slot i in as the most recent entry.
func (t *Table) pushFront(i int32) {
	s := &t.slots[i]
	s.prev, s.next = -1, t.front
	if t.front >= 0 {
		t.slots[t.front].prev = i
	} else {
		t.back = i
	}
	t.front = i
}

// release unlinks slot i, forgets its key and puts it on the free list.
func (t *Table) release(i int32) Entry {
	t.unlink(i)
	e := t.slots[i].entry
	delete(t.m, e.Key)
	t.slots[i] = slot{next: t.free, prev: -1}
	t.free = i
	return e
}

// Get returns the tracked owner of k without affecting replacement order.
func (t *Table) Get(k tx.Key) (tx.NodeID, bool) {
	i, ok := t.m[k]
	if !ok {
		return tx.NoNode, false
	}
	return t.slots[i].entry.Owner, true
}

// Touch returns the tracked owner of k, refreshing its recency under LRU.
// The router uses Touch when consulting placement so hot keys stay
// resident.
func (t *Table) Touch(k tx.Key) (tx.NodeID, bool) {
	i, ok := t.m[k]
	if !ok {
		return tx.NoNode, false
	}
	if t.policy == LRU && t.front != i {
		t.unlink(i)
		t.pushFront(i)
	}
	return t.slots[i].entry.Owner, true
}

// Put records that k is now owned by owner and returns any entries evicted
// to honor the capacity bound (nil if none). The returned slice is the
// table's own buffer, valid until the next Put. Updating an existing key
// refreshes recency under LRU but keeps insertion order under FIFO.
func (t *Table) Put(k tx.Key, owner tx.NodeID) []Entry {
	if i, ok := t.m[k]; ok {
		s := &t.slots[i]
		if s.entry.Owner != owner {
			t.stats.ownerMoves.Add(1)
		}
		s.entry.Owner = owner
		if t.policy == LRU && t.front != i {
			t.unlink(i)
			t.pushFront(i)
		}
		return nil
	}
	i := t.free
	if i >= 0 {
		t.free = t.slots[i].next
	} else {
		i = int32(len(t.slots))
		t.slots = append(t.slots, slot{})
	}
	t.slots[i].entry = Entry{Key: k, Owner: owner}
	t.pushFront(i)
	t.m[k] = i
	t.stats.inserts.Add(1)
	evicted := t.evicted[:0]
	for t.capacity > 0 && len(t.m) > t.capacity {
		evicted = append(evicted, t.release(t.back))
		t.stats.evictions.Add(1)
	}
	t.evicted = evicted
	t.stats.size.Store(int64(len(t.m)))
	if len(evicted) == 0 {
		return nil
	}
	return evicted
}

// Delete removes k from the table (e.g. the record was migrated back to
// its home partition by an eviction write).
func (t *Table) Delete(k tx.Key) {
	if i, ok := t.m[k]; ok {
		t.release(i)
		t.stats.deletes.Add(1)
		t.stats.size.Store(int64(len(t.m)))
	}
}

// oldestFirst calls fn for every entry in eviction order (oldest first).
func (t *Table) oldestFirst(fn func(Entry)) {
	for i := t.back; i >= 0; i = t.slots[i].prev {
		fn(t.slots[i].entry)
	}
}

// KeysOn returns all tracked keys currently owned by owner, in eviction
// order (oldest first). Dynamic provisioning uses this to re-home entries
// when a node is removed.
func (t *Table) KeysOn(owner tx.NodeID) []tx.Key {
	var out []tx.Key
	t.oldestFirst(func(e Entry) {
		if e.Owner == owner {
			out = append(out, e.Key)
		}
	})
	return out
}

// Fingerprint returns an order-independent hash of the table contents
// (key → owner pairs). Replica-consistency tests compare fingerprints
// across nodes; recency order is deliberately excluded because only the
// mapping affects execution.
func (t *Table) Fingerprint() uint64 {
	var acc uint64
	for k, i := range t.m {
		h := fnv.New64a()
		var buf [16]byte
		for b := 0; b < 8; b++ {
			buf[b] = byte(uint64(k) >> (8 * b))
			buf[8+b] = byte(uint64(t.slots[i].entry.Owner) >> (8 * b))
		}
		h.Write(buf[:])
		acc ^= h.Sum64()
	}
	return acc
}

// Snapshot returns the full mapping; used by checkpoints and tests.
func (t *Table) Snapshot() map[tx.Key]tx.NodeID {
	out := make(map[tx.Key]tx.NodeID, len(t.m))
	for k, i := range t.m {
		out[k] = t.slots[i].entry.Owner
	}
	return out
}

// Clone deep-copies the table including replacement order. Recovery
// restores a checkpointed fusion table before replaying the command log.
func (t *Table) Clone() *Table {
	c := New(t.capacity, t.policy)
	t.oldestFirst(func(e Entry) { c.Put(e.Key, e.Owner) })
	return c
}

// tableWire is the serialized form: configuration plus entries in eviction
// order (oldest first), which is enough to rebuild the identical
// replacement order for both LRU and FIFO.
type tableWire struct {
	Capacity int
	Policy   Policy
	Entries  []Entry
}

// GobEncode serializes the table for durable checkpoints. Replacement
// order is included — unlike Fingerprint, a restored replica must also
// evict identically to its peers.
func (t *Table) GobEncode() ([]byte, error) {
	w := tableWire{Capacity: t.capacity, Policy: t.policy}
	t.oldestFirst(func(e Entry) { w.Entries = append(w.Entries, e) })
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&w)
	return buf.Bytes(), err
}

// GobDecode rebuilds the table from GobEncode's form.
func (t *Table) GobDecode(data []byte) error {
	var w tableWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	r := New(w.Capacity, w.Policy)
	for _, e := range w.Entries {
		r.Put(e.Key, e.Owner)
	}
	t.capacity, t.policy = r.capacity, r.policy
	t.m, t.slots = r.m, r.slots
	t.front, t.back, t.free = r.front, r.back, r.free
	t.evicted = nil
	t.stats.size.Store(int64(len(r.m)))
	return nil
}
