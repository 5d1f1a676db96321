package storage

import (
	"fmt"
	"sync"

	"hermes/internal/tx"
)

// CommandLog is the totally ordered input log described in §4.3: because
// execution (including prescient routing and data fusion) is a
// deterministic function of the input sequence, logging the command stream
// plus periodic checkpoints is sufficient to recover a node to the latest
// state. This reproduction keeps the log in memory; durability of the
// underlying medium is orthogonal to the algorithms under study.
type CommandLog struct {
	mu      sync.Mutex
	first   uint64 // sequence of entries[0]
	entries []*tx.Batch
}

// NewCommandLog returns an empty command log.
func NewCommandLog() *CommandLog { return &CommandLog{} }

// Append records a batch. Batches must arrive in sequence order with no
// gaps; Append returns an error otherwise (a replica falling out of order
// indicates a broken total-order layer and must not be masked).
func (l *CommandLog) Append(b *tx.Batch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 {
		l.first = b.Seq
		l.entries = append(l.entries, b)
		return nil
	}
	want := l.first + uint64(len(l.entries))
	if b.Seq != want {
		return fmt.Errorf("commandlog: batch %d out of order, want %d", b.Seq, want)
	}
	l.entries = append(l.entries, b)
	return nil
}

// Next reports the sequence Append requires next. An empty log accepts any
// sequence and reports 0.
func (l *CommandLog) Next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 {
		return 0
	}
	return l.first + uint64(len(l.entries))
}

// Since returns all logged batches with sequence ≥ seq, in order.
// Recovery replays these on top of the checkpointed state.
func (l *CommandLog) Since(seq uint64) []*tx.Batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 || seq >= l.first+uint64(len(l.entries)) {
		return nil
	}
	start := 0
	if seq > l.first {
		start = int(seq - l.first)
	}
	out := make([]*tx.Batch, len(l.entries)-start)
	copy(out, l.entries[start:])
	return out
}

// Truncate drops all batches with sequence < seq (after a checkpoint at
// seq, earlier input is no longer needed).
func (l *CommandLog) Truncate(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 || seq <= l.first {
		return
	}
	n := seq - l.first
	if n > uint64(len(l.entries)) {
		n = uint64(len(l.entries))
	}
	l.entries = append([]*tx.Batch(nil), l.entries[n:]...)
	l.first = seq
}

// Len reports the number of retained batches.
func (l *CommandLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}
