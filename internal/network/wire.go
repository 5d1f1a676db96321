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
//	records: count, then per record Key u64 | Value bytes
//	Payload bytes
//	batch flag u8 (0 | 1), then tx.AppendBatch's form when 1
//
// A decoded message owns all of its memory, and empty slices decode as nil.

// minRecordLen is the least an encoded record occupies: its key and a
// one-byte length.
const minRecordLen = 8 + 1

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
	b = codec.AppendCount(b, len(m.Records))
	for i := range m.Records {
		b = codec.AppendU64(b, uint64(m.Records[i].Key))
		b = codec.AppendBytes(b, m.Records[i].Value)
	}
	b = codec.AppendBytes(b, m.Payload)
	if m.Batch == nil {
		return append(b, 0), nil
	}
	return tx.AppendBatch(append(b, 1), m.Batch)
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
	if n := r.Count(minRecordLen); n > 0 {
		m.Records = make([]Record, n)
		for i := range m.Records {
			m.Records[i] = Record{Key: tx.Key(r.U64()), Value: r.Bytes()}
		}
	}
	m.Payload = r.Bytes()
	switch flag := r.U8(); flag {
	case 0:
	case 1:
		m.Batch = tx.ReadBatch(r)
	default:
		r.Fail(fmt.Errorf("network: bad batch flag %d", flag))
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
