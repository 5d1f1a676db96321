package network

import (
	"fmt"

	"hermes/internal/codec"
	"hermes/internal/tx"
)

// The encoded form of a Message, shared byte for byte by the TCP link and
// the delivery journal (docs/CLUSTER.md, "Wire and journal format"):
//
//	From i64 | To i64 | Type u8 | Txn u64 | Seq u64 | Epoch u64 | Link u64 | Inc u64
//	flags u8 (flagBatch | flagAck | flagTagged)
//	records: count, then per record Key u64 | Txn u64 when flagTagged | Value bytes
//	Payload bytes
//	tx.AppendBatch's form when flagBatch
//	AckInc<<32 | Ack as a u64 when flagAck
//
// A decoded message owns all of its memory, and empty slices decode as nil.
// The encoding is canonical: a flag is set exactly when its part is
// non-zero, so a decoded message re-encodes to the bytes it came from.

// The flags byte's bits.
const (
	flagBatch  = 1 << iota // a batch follows the payload
	flagAck                // an ack trailer ends the frame
	flagTagged             // every record carries its transaction
)

// minRecordLen is the least an encoded record occupies: its key and a
// one-byte length.
const minRecordLen = 8 + 1

// tagged reports whether any record carries its own transaction.
func (m *Message) tagged() bool {
	for i := range m.Records {
		if m.Records[i].Txn != 0 {
			return true
		}
	}
	return false
}

// appendMessage appends m's encoded form to b. It fails only for a batch
// holding a procedure that has no wire tag.
func appendMessage(b []byte, m *Message) ([]byte, error) {
	b = codec.AppendI64(b, int64(m.From))
	b = codec.AppendI64(b, int64(m.To))
	b = append(b, byte(m.Type))
	b = codec.AppendU64(b, uint64(m.Txn))
	b = codec.AppendU64(b, m.Seq)
	b = codec.AppendU64(b, m.Epoch)
	b = codec.AppendU64(b, m.Link)
	b = codec.AppendU64(b, m.Inc)
	var flags byte
	if m.Batch != nil {
		flags |= flagBatch
	}
	if m.Ack != 0 || m.AckInc != 0 {
		flags |= flagAck
	}
	tagged := m.tagged()
	if tagged {
		flags |= flagTagged
	}
	b = append(b, flags)
	b = codec.AppendCount(b, len(m.Records))
	for i := range m.Records {
		b = codec.AppendU64(b, uint64(m.Records[i].Key))
		if tagged {
			b = codec.AppendU64(b, uint64(m.Records[i].Txn))
		}
		b = codec.AppendBytes(b, m.Records[i].Value)
	}
	b = codec.AppendBytes(b, m.Payload)
	if m.Batch != nil {
		var err error
		if b, err = tx.AppendBatch(b, m.Batch); err != nil {
			return b, err
		}
	}
	if flags&flagAck != 0 {
		b = codec.AppendU64(b, uint64(m.AckInc)<<32|uint64(m.Ack))
	}
	return b, nil
}

// decodeMessage decodes exactly one message from p; trailing bytes are an
// error. The result shares no memory with p.
func decodeMessage(p []byte) (Message, error) {
	r := codec.NewReader(p)
	m := Message{
		From:  tx.NodeID(r.I64()),
		To:    tx.NodeID(r.I64()),
		Type:  MsgType(r.U8()),
		Txn:   tx.TxnID(r.U64()),
		Seq:   r.U64(),
		Epoch: r.U64(),
		Link:  r.U64(),
		Inc:   r.U64(),
	}
	flags := r.U8()
	if flags&^(flagBatch|flagAck|flagTagged) != 0 {
		r.Fail(fmt.Errorf("network: bad flags %#x", flags))
	}
	tagged := flags&flagTagged != 0
	if n := r.Count(minRecordLen); n > 0 {
		m.Records = make([]Record, n)
		for i := range m.Records {
			rec := &m.Records[i]
			rec.Key = tx.Key(r.U64())
			if tagged {
				rec.Txn = tx.TxnID(r.U64())
			}
			rec.Value = r.Bytes()
		}
	}
	m.Payload = r.Bytes()
	if flags&flagBatch != 0 {
		m.Batch = tx.ReadBatch(r)
	}
	if flags&flagAck != 0 {
		v := r.U64()
		if v>>48 != 0 {
			r.Fail(fmt.Errorf("network: bad ack trailer %#x", v))
		}
		m.Ack, m.AckInc = uint32(v), uint16(v>>32)
	}
	if err := r.Finish(); err != nil {
		return Message{}, err
	}
	return m, nil
}

// appendFrame appends m as one self-contained frame — what a TCP connection
// writes and what the journal appends.
func appendFrame(b []byte, m *Message) ([]byte, error) {
	start := len(b)
	b, err := appendMessage(codec.BeginFrame(b), m)
	if err != nil {
		return b[:start], err
	}
	if err := codec.EndFrame(b, start); err != nil {
		return b[:start], err
	}
	return b, nil
}
