package tx

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"hermes/internal/codec"
)

// CounterProc is the stored procedure every generated workload runs: read
// all declared keys, then overwrite each written key with a payload whose
// counter (CounterValue) is the previous value's counter plus one. A key
// that does not exist yet reads as counter 0, so an inserted row is written
// with counter 1. It is pure data, so any replica can re-execute it.
type CounterProc struct {
	Reads  []Key
	Writes []Key
	// Payload is the size of the written value; values shorter than the
	// 8-byte counter are padded up to it.
	Payload int
	// Abort makes the transaction abort deterministically before any read
	// or write (TPC-C New-Order's invalid item).
	Abort bool
}

// ReadSet implements Procedure.
func (p *CounterProc) ReadSet() []Key { return p.Reads }

// WriteSet implements Procedure.
func (p *CounterProc) WriteSet() []Key { return p.Writes }

// Execute implements Procedure.
func (p *CounterProc) Execute(ctx ExecCtx) {
	if p.Abort {
		ctx.Abort("aborted by request")
		return
	}
	// Single-key fast path: the hot-chain case needs no read map.
	if len(p.Writes) == 1 && (len(p.Reads) == 0 || (len(p.Reads) == 1 && p.Reads[0] == p.Writes[0])) {
		k := p.Writes[0]
		ctx.Write(k, CounterValue(p.Payload, Counter(ctx.Read(k))+1))
		return
	}
	// Every value is read before any write. Most workload generators
	// declare one key list as both sets; then a written key's value is the
	// read at its own position, with no lookup.
	if slices.Equal(p.Reads, p.Writes) {
		var buf [8][]byte
		read := buf[:0]
		for _, k := range p.Reads {
			read = append(read, ctx.Read(k))
		}
		for i, k := range p.Writes {
			ctx.Write(k, CounterValue(p.Payload, Counter(read[i])+1))
		}
		return
	}
	read := make(map[Key][]byte, len(p.Reads))
	for _, k := range p.Reads {
		read[k] = ctx.Read(k)
	}
	for _, k := range p.Writes {
		cur, ok := read[k]
		if !ok {
			cur = ctx.Read(k)
		}
		ctx.Write(k, CounterValue(p.Payload, Counter(cur)+1))
	}
}

// CounterValue builds a record payload of the given size (at least 8
// bytes) whose first 8 bytes carry counter, little-endian, and whose rest
// is zero. Every workload seeds and writes values of this shape, which
// gives integration tests an invariant to check.
func CounterValue(size int, counter uint64) []byte {
	v := make([]byte, max(size, 8))
	binary.LittleEndian.PutUint64(v, counter)
	return v
}

// Counter reads the counter of a CounterValue payload; a shorter value
// (including an absent one) reads as 0.
func Counter(v []byte) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// Procedure tags: the first byte of an encoded procedure. Journals persist
// them, so a value is never reused for a different type.
const (
	tagCounter   = 1
	tagMigration = 2
	tagProvision = 3
	// tagAbortingCounter is a CounterProc with Abort set. It has its own
	// tag so a non-aborting request's bytes are the ones tagCounter always
	// had.
	tagAbortingCounter = 4
	// tagOneListCounter is a non-aborting CounterProc whose Reads and
	// Writes are equal (oneList): a read-modify-write of one key list,
	// which travels once.
	tagOneListCounter = 5
)

// oneList reports whether p travels under tagOneListCounter. It is the one
// place that decides the form, so the codec and WireKeys cannot disagree.
func oneList(p *CounterProc) bool { return !p.Abort && slices.Equal(p.Reads, p.Writes) }

// WireKeys returns how many keys the network's byte model charges r for:
// a one-list CounterProc's list once, as the codec writes it, and the
// declared read and write sets of any other procedure.
func WireKeys(r *Request) int {
	if p, ok := r.Proc.(*CounterProc); ok && oneList(p) {
		return len(p.Reads)
	}
	return len(r.ReadSet()) + len(r.WriteSet())
}

// WireTag returns the tag p travels under. The type switch is the authority
// on which procedures may cross a process boundary or enter a journal: only
// ones that are pure data. A procedure carrying a closure (FuncProc) would
// otherwise arrive on a remote node as a different transaction and the
// replicas would diverge.
func WireTag(p Procedure) (uint8, error) {
	switch p := p.(type) {
	case *CounterProc:
		if p.Abort {
			return tagAbortingCounter, nil
		}
		if oneList(p) {
			return tagOneListCounter, nil
		}
		return tagCounter, nil
	case *MigrationProc:
		return tagMigration, nil
	case *ProvisionProc:
		return tagProvision, nil
	}
	return 0, fmt.Errorf("tx: %T has no wire encoding: only CounterProc, MigrationProc and ProvisionProc cross process boundaries", p)
}

func appendProc(b []byte, p Procedure) ([]byte, error) {
	tag, err := WireTag(p)
	if err != nil {
		return b, err
	}
	b = append(b, tag)
	switch p := p.(type) {
	case *CounterProc:
		b = appendIDs(b, p.Reads)
		if tag != tagOneListCounter {
			b = appendIDs(b, p.Writes)
		}
		b = codec.AppendI64(b, int64(p.Payload))
	case *MigrationProc:
		b = codec.AppendI64(appendIDs(b, p.Keys), int64(p.To))
	case *ProvisionProc:
		b = appendIDs(appendIDs(b, p.Add), p.Remove)
	}
	return b, nil
}

func readProc(r *codec.Reader) Procedure {
	switch tag := r.U8(); tag {
	case tagCounter, tagAbortingCounter, tagOneListCounter:
		p := &CounterProc{Reads: readIDs[Key](r), Abort: tag == tagAbortingCounter}
		if tag == tagOneListCounter {
			p.Writes = p.Reads // one list, one allocation; nothing mutates either
		} else {
			// Equal lists under tag 1 are how v5 wrote every
			// read-modify-write; v5 journals replay them, and they
			// re-encode as tag 5.
			p.Writes = readIDs[Key](r)
		}
		// Every replica allocates Payload bytes per written key, so a
		// hostile size must not get past the decoder; no larger value fits
		// in a frame anyway.
		size := r.I64()
		if size < 0 || size > codec.MaxFrameLen {
			r.Fail(fmt.Errorf("tx: counter payload %d outside [0, %d]", size, codec.MaxFrameLen))
			return nil
		}
		p.Payload = int(size)
		return p
	case tagMigration:
		p := &MigrationProc{Keys: readIDs[Key](r)}
		p.To = NodeID(r.I64())
		return p
	case tagProvision:
		return &ProvisionProc{Add: readIDs[NodeID](r), Remove: readIDs[NodeID](r)}
	default:
		r.Fail(fmt.Errorf("tx: unknown procedure tag %d", tag))
		return nil
	}
}

// appendIDs appends a list of 64-bit identifiers (keys, or node ids in
// two's complement) behind its count.
func appendIDs[T Key | NodeID](b []byte, ids []T) []byte {
	b = codec.AppendCount(b, len(ids))
	for _, id := range ids {
		b = codec.AppendU64(b, uint64(id))
	}
	return b
}

// readIDs reads a list appendIDs wrote; like every sequence in the format,
// an empty one reads as nil.
func readIDs[T Key | NodeID](r *codec.Reader) []T {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	ids := make([]T, n)
	for i := range ids {
		ids[i] = T(r.U64())
	}
	return ids
}

// minRequestLen is the least an encoded request occupies: the four fixed
// fields and the procedure tag.
const minRequestLen = 4*8 + 1

// AppendRequest appends r's wire form: the fields that mean something
// across a process boundary. The key-set caches are rebuilt on decode and
// the in-process origin pointer is dropped. SubmitTime travels as Unix
// nanoseconds, 0 standing for the zero time.
func AppendRequest(b []byte, r *Request) ([]byte, error) {
	if r == nil {
		return b, fmt.Errorf("tx: nil request has no wire encoding")
	}
	var submitted int64
	if !r.SubmitTime.IsZero() {
		submitted = r.SubmitTime.UnixNano()
	}
	b = codec.AppendU64(b, uint64(r.ID))
	b = codec.AppendI64(b, submitted)
	b = codec.AppendI64(b, int64(r.Client))
	b = codec.AppendU64(b, r.ClientSeq)
	return appendProc(b, r.Proc)
}

// ReadRequest reads one request, rebuilding the normalized read- and
// write-set caches exactly as NewRequest does so routing on the receiving
// node sees the same sets as routing on the sender. Failures are reported
// through r; the result is then meaningless.
func ReadRequest(r *codec.Reader) *Request {
	req := &Request{ID: TxnID(r.U64())}
	if submitted := r.I64(); submitted != 0 {
		req.SubmitTime = time.Unix(0, submitted)
	}
	req.Client = NodeID(r.I64())
	req.ClientSeq = r.U64()
	if req.Proc = readProc(r); req.Proc != nil {
		req.cacheSets()
	}
	return req
}

// AppendBatch appends bt's wire form.
func AppendBatch(b []byte, bt *Batch) ([]byte, error) {
	b = codec.AppendU64(b, bt.Seq)
	b = codec.AppendCount(b, len(bt.Txns))
	var err error
	for _, r := range bt.Txns {
		if b, err = AppendRequest(b, r); err != nil {
			return b, err
		}
	}
	return b, nil
}

// ReadBatch reads one batch; failures are reported through r.
func ReadBatch(r *codec.Reader) *Batch {
	bt := &Batch{Seq: r.U64()}
	if n := r.Count(minRequestLen); n > 0 {
		bt.Txns = make([]*Request, n)
		for i := range bt.Txns {
			bt.Txns[i] = ReadRequest(r)
		}
	}
	return bt
}

// GobEncode returns AppendRequest's bytes. The method keeps its name only
// because the benchmark's probes (frozen under bench/) call it and
// gob-encode a network.Message reflectively; nothing on the data plane
// uses encoding/gob.
func (r *Request) GobEncode() ([]byte, error) {
	return AppendRequest(make([]byte, 0, 128), r) // one allocation for a typical 3-key request (66 bytes)
}

// GobDecode is ReadRequest over exactly b (see GobEncode).
func (r *Request) GobDecode(b []byte) error {
	rd := codec.NewReader(b)
	req := ReadRequest(rd)
	if err := rd.Finish(); err != nil {
		return err
	}
	*r = *req
	return nil
}
