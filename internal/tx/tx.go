// Package tx defines the core transaction model shared by every layer of
// the system: table-tagged record keys, stored-procedure transactions with
// declared read- and write-sets, and totally ordered batches.
//
// Like Calvin and Hermes, the engine assumes the read-set and write-set of
// a transaction are known before it starts (the OLLP reconnaissance step of
// Calvin is assumed to have already run); every workload in this repository
// declares its sets directly.
package tx

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Key identifies a record. The high byte carries a table tag so that
// multi-table schemas (e.g. TPC-C's nine tables) share one flat key space,
// which keeps lock tables, fusion tables and ownership maps uniform.
type Key uint64

const tableShift = 56

// MakeKey builds a key for row id within table.
// The id must fit in 56 bits; higher bits are silently truncated.
func MakeKey(table uint8, id uint64) Key {
	return Key(uint64(table)<<tableShift | (id & (1<<tableShift - 1)))
}

// Table reports the table tag of the key.
func (k Key) Table() uint8 { return uint8(k >> tableShift) }

// Row reports the row id of the key within its table.
func (k Key) Row() uint64 { return uint64(k) & (1<<tableShift - 1) }

// String formats the key as "t<table>/<row>".
func (k Key) String() string { return fmt.Sprintf("t%d/%d", k.Table(), k.Row()) }

// NodeID identifies a machine node (and, because this reproduction follows
// the paper's one-partition-per-node assumption, also a data partition).
// Node IDs are dense and start at 0.
type NodeID int

// NoNode is the sentinel for "no node" (e.g. an unroutable transaction).
const NoNode NodeID = -1

// TxnID is the globally unique, totally ordered transaction identifier
// assigned by the sequencer. Lower ID means earlier in the serial order.
type TxnID uint64

// ExecCtx is the interface a stored procedure uses to access the database
// during execution. All keys touched must have been declared in the
// procedure's read/write-sets; the engine enforces this in debug builds.
type ExecCtx interface {
	// Read returns the current value of key k. The record is guaranteed to
	// be present locally by the time the procedure runs (the engine has
	// already collected remote reads).
	Read(k Key) []byte
	// Write replaces the value of key k.
	Write(k Key, v []byte)
	// Abort signals a logic abort (e.g. insufficient stock). The engine
	// rolls back writes via the undo log but still performs the data
	// migrations planned by the router, per §4.2 of the paper.
	Abort(reason string)
	// Aborted reports whether Abort has been called.
	Aborted() bool
}

// Procedure is a deterministic stored procedure. Implementations must be
// pure functions of the values read through the ExecCtx; in particular they
// must not consult wall-clock time or randomness, otherwise replicas
// diverge.
type Procedure interface {
	// ReadSet returns the keys the procedure may read. It may overlap
	// WriteSet; the engine takes the union for record collection.
	ReadSet() []Key
	// WriteSet returns the keys the procedure writes.
	WriteSet() []Key
	// Execute runs the transaction logic.
	Execute(ctx ExecCtx)
}

// Request is a client transaction request flowing through the system.
type Request struct {
	ID   TxnID
	Proc Procedure

	// SubmitTime is when the client issued the request; used only for
	// latency accounting, never for execution decisions.
	SubmitTime time.Time

	// Client and ClientSeq identify the submitting front-end and its
	// per-client submission number (first = 1; 0 = not submitted through a
	// front-end). The sequencer leader uses the pair to deduplicate retried
	// submissions across a failover so a request is never sequenced
	// twice, and the engine keys the client's completion waiter by it —
	// the committing node answers (Client, ClientSeq), never a pointer or
	// a transaction ID. They are set by the front-end, not by callers.
	Client    NodeID
	ClientSeq uint64

	// reads/writes/access cache the (deduplicated, sorted) declared sets
	// and their union so the router and the engine do not re-derive them
	// for every candidate route and role. access aliases writes or reads
	// when the union equals either; all three share one array when the
	// procedure declares equal lists.
	reads  []Key
	writes []Key
	access []Key
}

// SendCopy returns a private copy of r for one transmission to the
// sequencer: session front-ends send one per (re)transmission so no two
// sequencer replicas ever write the same Request — concurrent leaders of
// different epochs each seal their own copy. Whichever copy the total
// order delivers carries r's (Client, ClientSeq) stamp, which is all the
// engine needs to answer the client.
func (r *Request) SendCopy() *Request {
	cp := *r
	return &cp
}

// NewRequest builds a request around proc, caching its normalized read- and
// write-sets. The declared slices are copied before normalization so a
// procedure value can be submitted repeatedly (and concurrently) without
// the in-place sort racing with executors of earlier submissions.
func NewRequest(id TxnID, proc Procedure) *Request {
	r := &Request{ID: id, Proc: proc}
	r.cacheSets()
	return r
}

func (r *Request) cacheSets() {
	rs, ws := r.Proc.ReadSet(), r.Proc.WriteSet()
	if slices.Equal(rs, ws) {
		// A read-modify-write of one key list: one normalized copy serves
		// as all three sets.
		r.reads = NormalizeKeys(slices.Clone(rs))
		r.writes, r.access = r.reads, r.reads
		return
	}
	// One slab for both copies; three-index slices keep them apart.
	buf := make([]Key, len(rs)+len(ws))
	copy(buf, rs)
	copy(buf[len(rs):], ws)
	r.reads = NormalizeKeys(buf[:len(rs):len(rs)])
	r.writes = NormalizeKeys(buf[len(rs):])
	switch {
	case subset(r.reads, r.writes):
		r.access = r.writes
	case subset(r.writes, r.reads):
		r.access = r.reads
	default:
		out := make([]Key, 0, len(r.reads)+len(r.writes))
		out = append(out, r.reads...)
		out = append(out, r.writes...)
		r.access = NormalizeKeys(out)
	}
}

// subset reports whether every key of sorted a is in sorted b.
func subset(a, b []Key) bool {
	if len(a) > len(b) {
		return false
	}
	for _, k := range a {
		if !ContainsKey(b, k) {
			return false
		}
	}
	return true
}

// ReadSet returns the deduplicated, sorted read-set. Callers must not
// mutate the returned slice.
func (r *Request) ReadSet() []Key { return r.reads }

// WriteSet returns the deduplicated, sorted write-set. Callers must not
// mutate the returned slice.
func (r *Request) WriteSet() []Key { return r.writes }

// AccessSet returns the union of the read- and write-sets, sorted. Callers
// must not mutate the returned slice.
func (r *Request) AccessSet() []Key { return r.access }

// Batch is one totally ordered group of requests. All nodes receive the
// identical sequence of batches; Seq increases by one per batch.
type Batch struct {
	Seq  uint64
	Txns []*Request
}

// NormalizeKeys sorts keys ascending and removes duplicates in place,
// returning the compacted slice.
func NormalizeKeys(ks []Key) []Key {
	if len(ks) <= 1 {
		return ks
	}
	slices.Sort(ks)
	w := 1
	for i := 1; i < len(ks); i++ {
		if ks[i] != ks[w-1] {
			ks[w] = ks[i]
			w++
		}
	}
	return ks[:w]
}

// ContainsKey reports whether sorted keys contains k.
func ContainsKey(keys []Key, k Key) bool {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
	return i < len(keys) && keys[i] == k
}
