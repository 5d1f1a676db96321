package migration

import (
	"hermes/internal/tx"
)

// Squall turns a migration plan (an ordered key list and a destination)
// into dedicated chunked migration transactions, the asynchronous
// migration technique of Elmore et al. that both Hermes (§3.3) and the
// Squall/Clay baselines (§5.4) use for cold data. Each chunk becomes one
// tx.MigrationProc submitted through the ordinary sequencer, so chunk
// moves are totally ordered against user transactions and serialized by
// the lock manager — which is precisely why migrating records that are
// still hot craters throughput (Fig. 14), and why Hermes excludes
// fusion-tracked keys from chunks.
type Squall struct {
	// ChunkSize is the number of records per migration transaction
	// (the paper uses 1000 in §5.4).
	ChunkSize int
}

// NewSquall returns an executor with the given chunk size.
func NewSquall(chunkSize int) *Squall {
	if chunkSize <= 0 {
		chunkSize = 1000
	}
	return &Squall{ChunkSize: chunkSize}
}

// Chunks splits keys into MigrationProcs targeting to. The input order is
// preserved; every key appears in exactly one chunk.
func (s *Squall) Chunks(keys []tx.Key, to tx.NodeID) []*tx.MigrationProc {
	var out []*tx.MigrationProc
	for start := 0; start < len(keys); start += s.ChunkSize {
		end := start + s.ChunkSize
		if end > len(keys) {
			end = len(keys)
		}
		chunk := append([]tx.Key(nil), keys[start:end]...)
		out = append(out, &tx.MigrationProc{Keys: chunk, To: to})
	}
	return out
}
