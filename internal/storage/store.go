// Package storage implements the per-node main-memory storage engine:
// a sharded key-value record store with transactional undo (for the logic
// aborts of §4.2), record insert/delete (used by live data migration),
// and the consistent checkpoints that recovery (§4.3) restores before it
// replays the sequencer's totally ordered input on top.
package storage

import (
	"hash/fnv"
	"sort"
	"sync"

	"hermes/internal/tx"
)

const shardCount = 64

type shard struct {
	mu   sync.RWMutex
	recs map[tx.Key][]byte
}

// Store is one node's record storage. All value slices handed to Write and
// Insert are owned by the store afterwards; callers must not mutate them.
// Store is safe for concurrent use.
type Store struct {
	shards [shardCount]shard
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].recs = make(map[tx.Key][]byte)
	}
	return s
}

func (s *Store) shardFor(k tx.Key) *shard {
	// Multiply-shift mix; keys are often sequential so avoid modulo bias
	// landing whole ranges in one shard.
	h := uint64(k) * 0x9E3779B97F4A7C15
	return &s.shards[h>>58&(shardCount-1)]
}

// Read returns the value of k and whether it exists. The returned slice
// must not be mutated.
func (s *Store) Read(k tx.Key) ([]byte, bool) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	v, ok := sh.recs[k]
	sh.mu.RUnlock()
	return v, ok
}

// Write sets the value of k, creating the record if absent.
func (s *Store) Write(k tx.Key, v []byte) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	sh.recs[k] = v
	sh.mu.Unlock()
}

// Delete removes k, returning its prior value and whether it existed.
// Live migration uses Delete at the source and Write at the destination.
func (s *Store) Delete(k tx.Key) ([]byte, bool) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	v, ok := sh.recs[k]
	if ok {
		delete(sh.recs, k)
	}
	sh.mu.Unlock()
	return v, ok
}

// Len returns the number of records in the store.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].recs)
		s.shards[i].mu.RUnlock()
	}
	return n
}

// Keys returns all keys in ascending order. Intended for tests, cold
// migration planning, and checkpoints — not the hot path.
func (s *Store) Keys() []tx.Key {
	out := make([]tx.Key, 0, s.Len())
	for i := range s.shards {
		s.shards[i].mu.RLock()
		for k := range s.shards[i].recs {
			out = append(out, k)
		}
		s.shards[i].mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Digest returns a stable, order-independent digest of the full store
// contents: per-record hashes are combined with both XOR and a multiplied
// sum and mixed with the record count, so pairs of colliding records
// cannot cancel out as they would under XOR alone. Cross-run equivalence
// checks compare per-node digests with it.
func (s *Store) Digest() uint64 {
	var xorAcc, sumAcc, count uint64
	for i := range s.shards {
		s.shards[i].mu.RLock()
		for k, v := range s.shards[i].recs {
			h := fnv.New64a()
			var kb [8]byte
			for b := 0; b < 8; b++ {
				kb[b] = byte(uint64(k) >> (8 * b))
			}
			h.Write(kb[:])
			h.Write(v)
			hv := h.Sum64()
			xorAcc ^= hv
			sumAcc += hv * 0x9E3779B97F4A7C15
			count++
		}
		s.shards[i].mu.RUnlock()
	}
	mix := xorAcc ^ (sumAcc * 0xFF51AFD7ED558CCD) ^ (count * 0xC4CEB9FE1A85EC53)
	mix ^= mix >> 33
	return mix
}

// Usage reports the record count and total value-byte volume held by the
// store. Migration conservation checks rely on both being invariant.
func (s *Store) Usage() (records int, bytes int64) {
	for i := range s.shards {
		s.shards[i].mu.RLock()
		for _, v := range s.shards[i].recs {
			records++
			bytes += int64(len(v))
		}
		s.shards[i].mu.RUnlock()
	}
	return records, bytes
}

// Checkpoint returns a deep copy of the store contents keyed by record.
// Per §4.3 the engine quiesces between batches before checkpointing, so a
// consistent cut is simply "after batch k".
func (s *Store) Checkpoint() map[tx.Key][]byte {
	out := make(map[tx.Key][]byte, s.Len())
	for i := range s.shards {
		s.shards[i].mu.RLock()
		for k, v := range s.shards[i].recs {
			cp := make([]byte, len(v))
			copy(cp, v)
			out[k] = cp
		}
		s.shards[i].mu.RUnlock()
	}
	return out
}

// Restore replaces the store contents with a checkpoint.
func (s *Store) Restore(cp map[tx.Key][]byte) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
		s.shards[i].recs = make(map[tx.Key][]byte)
		s.shards[i].mu.Unlock()
	}
	for k, v := range cp {
		cpv := make([]byte, len(v))
		copy(cpv, v)
		s.Write(k, cpv)
	}
}
