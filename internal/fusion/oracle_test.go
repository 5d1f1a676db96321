package fusion

import (
	"bytes"
	"container/list"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"hermes/internal/tx"
)

// listTable is the fusion table as it was before the slot array: a map of
// key to list element over container/list. It is kept here as the oracle
// for eviction order, KeysOn, Fingerprint and GobEncode, which every
// replica's determinism depends on.
type listTable struct {
	capacity int
	policy   Policy
	m        map[tx.Key]*list.Element // Value: *Entry
	order    *list.List               // front = most recent
}

func newListTable(capacity int, policy Policy) *listTable {
	return &listTable{capacity: capacity, policy: policy, m: map[tx.Key]*list.Element{}, order: list.New()}
}

func (t *listTable) Touch(k tx.Key) (tx.NodeID, bool) {
	e, ok := t.m[k]
	if !ok {
		return tx.NoNode, false
	}
	if t.policy == LRU {
		t.order.MoveToFront(e)
	}
	return e.Value.(*Entry).Owner, true
}

func (t *listTable) Put(k tx.Key, owner tx.NodeID) []Entry {
	if e, ok := t.m[k]; ok {
		e.Value.(*Entry).Owner = owner
		if t.policy == LRU {
			t.order.MoveToFront(e)
		}
		return nil
	}
	t.m[k] = t.order.PushFront(&Entry{Key: k, Owner: owner})
	var evicted []Entry
	for t.capacity > 0 && len(t.m) > t.capacity {
		back := t.order.Back()
		victim := *back.Value.(*Entry)
		t.order.Remove(back)
		delete(t.m, victim.Key)
		evicted = append(evicted, victim)
	}
	return evicted
}

func (t *listTable) Delete(k tx.Key) {
	if e, ok := t.m[k]; ok {
		t.order.Remove(e)
		delete(t.m, k)
	}
}

func (t *listTable) KeysOn(owner tx.NodeID) []tx.Key {
	var out []tx.Key
	for e := t.order.Back(); e != nil; e = e.Prev() {
		if en := e.Value.(*Entry); en.Owner == owner {
			out = append(out, en.Key)
		}
	}
	return out
}

func (t *listTable) Fingerprint() uint64 {
	var acc uint64
	for k, e := range t.m {
		h := fnv.New64a()
		var buf [16]byte
		for b := 0; b < 8; b++ {
			buf[b] = byte(uint64(k) >> (8 * b))
			buf[8+b] = byte(uint64(e.Value.(*Entry).Owner) >> (8 * b))
		}
		h.Write(buf[:])
		acc ^= h.Sum64()
	}
	return acc
}

func (t *listTable) GobEncode() ([]byte, error) {
	w := tableWire{Capacity: t.capacity, Policy: t.policy}
	for e := t.order.Back(); e != nil; e = e.Prev() {
		w.Entries = append(w.Entries, *e.Value.(*Entry))
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&w)
	return buf.Bytes(), err
}

// TestSlotTableMatchesListTable drives the table and the list-based oracle
// with the same seeded Put/Touch/Delete sequence, under both policies and
// bounded and unbounded, and requires identical evictions at every step
// and identical KeysOn, Fingerprint, GobEncode bytes and clones along the
// way.
func TestSlotTableMatchesListTable(t *testing.T) {
	for _, policy := range []Policy{LRU, FIFO} {
		for _, capacity := range []int{0, 1, 7, 64} {
			t.Run(fmt.Sprintf("policy%d/cap%d", policy, capacity), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity)*10 + int64(policy)))
				got, want := New(capacity, policy), newListTable(capacity, policy)
				for i := 0; i < 20_000; i++ {
					k := tx.Key(rng.Intn(200))
					switch op := rng.Intn(10); {
					case op < 5:
						owner := tx.NodeID(rng.Intn(4))
						if g, w := got.Put(k, owner), want.Put(k, owner); !slices.Equal(g, w) {
							t.Fatalf("step %d: Put(%d, %d) evicted %v, want %v", i, k, owner, g, w)
						}
					case op < 8:
						g, gok := got.Touch(k)
						w, wok := want.Touch(k)
						if g != w || gok != wok {
							t.Fatalf("step %d: Touch(%d) = %d,%v, want %d,%v", i, k, g, gok, w, wok)
						}
					default:
						got.Delete(k)
						want.Delete(k)
					}
					if i%1000 != 999 {
						continue
					}
					compareTables(t, i, got, want)
					compareTables(t, i, got.Clone(), want)
					var back Table
					data, err := got.GobEncode()
					if err != nil {
						t.Fatal(err)
					}
					if err := back.GobDecode(data); err != nil {
						t.Fatal(err)
					}
					compareTables(t, i, &back, want)
				}
			})
		}
	}
}

func compareTables(t *testing.T, step int, got *Table, want *listTable) {
	t.Helper()
	if got.Len() != len(want.m) {
		t.Fatalf("step %d: Len = %d, want %d", step, got.Len(), len(want.m))
	}
	for owner := tx.NodeID(0); owner < 4; owner++ {
		if g, w := got.KeysOn(owner), want.KeysOn(owner); !slices.Equal(g, w) {
			t.Fatalf("step %d: KeysOn(%d) = %v, want %v", step, owner, g, w)
		}
	}
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		t.Fatalf("step %d: Fingerprint = %x, want %x", step, g, w)
	}
	g, err := got.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("step %d: GobEncode bytes differ", step)
	}
}

// TestPutAllocatesNothing: once the slot array and the map have grown to
// the capacity, inserting, evicting and touching allocate nothing.
func TestPutAllocatesNothing(t *testing.T) {
	f := New(1024, LRU)
	for i := 0; i < 4096; i++ {
		f.Put(tx.Key(i), 0)
	}
	next := tx.Key(4096)
	allocs := testing.AllocsPerRun(1000, func() {
		f.Put(next, tx.NodeID(next%3))
		f.Touch(next - 512)
		next++
	})
	if allocs != 0 {
		t.Fatalf("Put+Touch allocated %.1f objects per call", allocs)
	}
}
