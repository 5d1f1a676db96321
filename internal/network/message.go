// Package network provides the cluster transport: typed messages between
// nodes, an in-process channel transport with a configurable latency model
// and byte accounting (used by the emulated experiments), a TCP transport
// that carries each message as one checksummed binary frame (wire.go) for
// real multi-process clusters, and the delivery journal that persists the
// same frames.
package network

import (
	"encoding/binary"
	"fmt"

	"hermes/internal/tx"
)

// MsgType discriminates message payloads.
type MsgType uint8

// Message types used across the system.
const (
	// MsgRecordPush carries records from an owner node to a transaction's
	// master (remote reads / data-fusion migration input). A node sends one
	// per destination for everything its roles pushed there during one
	// bucket-worker chunk: a push for one transaction names it in Txn, a
	// push for several tags each record with its own (Record.Txn).
	MsgRecordPush MsgType = iota
	// MsgReadBroadcast carries a participant's local reads to all writer
	// nodes in Calvin's multi-master scheme.
	MsgReadBroadcast
	// MsgWriteBack carries post-commit records back to their owner
	// partitions (G-Store+ and T-Part).
	MsgWriteBack
	// MsgMigrationChunk carries a chunk of cold records during live
	// migration (Squall-style background migration).
	MsgMigrationChunk
	// MsgSeqForward carries client requests from a node's sequencer
	// front-end to the total-order leader.
	MsgSeqForward
	// MsgSeqDeliver carries a totally ordered batch from the leader to
	// every node.
	MsgSeqDeliver
	// Reserved: a retired per-batch delivery acknowledgement held this
	// value. Journals and HTRC exports persist MsgType numbers, so the
	// values after it must not shift.
	_
	// MsgControl carries small control-plane notifications.
	MsgControl
	// MsgLinkAck is the reliable layer's standalone cumulative per-link
	// delivery acknowledgement (Link carries the highest contiguously
	// received sequence; when the receiver holds frames beyond a gap after
	// it, Seq and Txn carry the lowest and highest of them). Most acks
	// never take this form: they ride the next data frame on the reverse
	// link (Message.Ack). A standalone ack leaves for a gap report, a full
	// drain, or an ack no data frame picked up within ackDelay. It never
	// reaches the engine: the receiving side's pump consumes it.
	MsgLinkAck
	// MsgSeqReplicate carries a sealed batch from the sequencer leader to a
	// standby sequencer. A batch is delivered to the cluster only after
	// every live standby has appended and acknowledged it.
	MsgSeqReplicate
	// MsgSeqReplicateAck acknowledges a replicated batch (Seq) back to the
	// leader that sealed it.
	MsgSeqReplicateAck
	// MsgSeqHeartbeat is the leader's liveness pulse to standby sequencers.
	MsgSeqHeartbeat
	// MsgSeqEpoch announces a sequencer leadership epoch: From is the
	// leader of Epoch. Sent by a freshly promoted standby to every node and
	// replica, and in reply to messages carrying a stale epoch.
	MsgSeqEpoch
	// MsgTxnDone tells the node whose front-end submitted some transactions
	// that their committer finished them. Payload lists their ClientSeqs,
	// the keys the submitting process holds the clients' waiters under, in
	// ascending order as delta uvarints (AppendClientSeqs). A committer
	// sends one per batch and client node, once the last of the batch's
	// transactions it commits for that node has finished. Sent only when
	// the front-end lives in another process: a client hosted beside the
	// committer is answered through shared memory.
	MsgTxnDone
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgRecordPush:
		return "RecordPush"
	case MsgReadBroadcast:
		return "ReadBroadcast"
	case MsgWriteBack:
		return "WriteBack"
	case MsgMigrationChunk:
		return "MigrationChunk"
	case MsgSeqForward:
		return "SeqForward"
	case MsgSeqDeliver:
		return "SeqDeliver"
	case MsgControl:
		return "Control"
	case MsgLinkAck:
		return "LinkAck"
	case MsgSeqReplicate:
		return "SeqReplicate"
	case MsgSeqReplicateAck:
		return "SeqReplicateAck"
	case MsgSeqHeartbeat:
		return "SeqHeartbeat"
	case MsgSeqEpoch:
		return "SeqEpoch"
	case MsgTxnDone:
		return "TxnDone"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Record is a key-value pair travelling between nodes.
type Record struct {
	Key   tx.Key
	Value []byte
	// Txn tags the record with its transaction in a push that carries
	// records of more than one; WireSize charges 8 bytes for a tag. It is
	// 0 in a message for one transaction, which names it in Message.Txn.
	Txn tx.TxnID
}

// Message is the unit of communication between nodes.
type Message struct {
	From, To tx.NodeID
	Type     MsgType

	// AckInc and Ack piggyback a cumulative link acknowledgement on a
	// sequenced data frame: the reverse link (To -> From) is acknowledged
	// up to the sequence whose low 32 bits are Ack, which the receiver
	// widens against its send window, under To's incarnation AckInc. 0 and
	// 0 carry none. They are narrow so that they fit in the padding after
	// Type: the emulation's channels hold Messages by value, so every byte
	// added here is paid on every set-up and every hop. An ack that does
	// not fit (low bits 0, incarnation of 1<<16 or more) goes standalone.
	// The reliable layer strips both before delivery, so neither reaches a
	// consumer or the journal; like Link and Inc, they ride under the
	// header estimate in WireSize.
	AckInc uint16
	Ack    uint32

	Txn     tx.TxnID
	Seq     uint64
	Records []Record
	Payload []byte

	// Epoch is the sequencer leadership epoch the message was sent under
	// (sequencer control-plane messages only; 0 before the first failover).
	// Receivers drop or bounce messages from stale epochs.
	Epoch uint64

	// Link is the reliable layer's per-(From,To)-link sequence number
	// (first message = 1; 0 = unsequenced). On MsgLinkAck it instead
	// carries the cumulative acknowledged sequence. The header estimate in
	// WireSize already covers it.
	Link uint64

	// Inc is the sender's incarnation for the reliable layer: a restarted
	// process replays its deterministic input and regenerates its sends,
	// but executor interleaving makes per-link send order nondeterministic,
	// so replayed link sequences cannot be trusted against a peer's old
	// watermark. Each process restart bumps Inc; a receiver seeing a higher
	// incarnation resets the link and accepts the replayed stream from 1
	// (deliveries are idempotent), while lower incarnations are dropped as
	// stale. Always 0 on in-process transports.
	Inc uint64

	// Batch carries a totally ordered request batch (MsgSeqForward /
	// MsgSeqDeliver / MsgSeqReplicate): by reference on the in-process
	// transport, where WireSize accounts for it as if the request
	// descriptors were serialized, and encoded by tx.AppendBatch on TCP and
	// in the journal, where only procedures with a wire tag may travel.
	Batch *tx.Batch
}

// wire overheads, approximating a compact binary framing: fixed header plus
// per-record key prefix.
const (
	headerBytes    = 32
	perRecordBytes = 12
)

// WireSize estimates the bytes this message occupies on the wire; the
// emulation's bandwidth model and the network-usage metrics (Fig. 8) use
// it.
func (m *Message) WireSize() int {
	n := headerBytes + len(m.Payload)
	for _, r := range m.Records {
		n += perRecordBytes + len(r.Value)
		if r.Txn != 0 {
			n += 8
		}
	}
	if m.Batch != nil {
		for _, r := range m.Batch.Txns {
			// Request id + procedure tag + 8 bytes per key the codec
			// writes: a read-modify-write's one key list counts once.
			n += 16 + 8*tx.WireKeys(r)
		}
	}
	return n
}

// AppendClientSeqs appends a MsgTxnDone payload to b: seqs, which must be
// ascending, as the first value and then the differences, each a uvarint.
func AppendClientSeqs(b []byte, seqs []uint64) []byte {
	var prev uint64
	for _, s := range seqs {
		b = binary.AppendUvarint(b, s-prev)
		prev = s
	}
	return b
}

// ClientSeqs decodes a MsgTxnDone payload written by AppendClientSeqs.
func ClientSeqs(p []byte) ([]uint64, error) {
	var seqs []uint64
	var prev uint64
	for len(p) > 0 {
		d, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, fmt.Errorf("network: bad client sequence list")
		}
		prev += d
		seqs = append(seqs, prev)
		p = p[n:]
	}
	return seqs, nil
}
