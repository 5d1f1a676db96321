package network

import (
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hermes/internal/tx"
)

// leaderNode mirrors engine.LeaderNode (a negative transport address),
// which this package cannot import.
const leaderNode tx.NodeID = -64

// The benchmark's frame shapes (bench/probes.go): the data plane's most
// common message, the largest one, and the two smallest; then the two v5
// forms a record push may also take, a push for several transactions and
// a push carrying an ack.

func benchRecordPush() Message {
	return Message{From: 1, To: 0, Type: MsgRecordPush, Txn: 7, Link: 3, Inc: 1,
		Records: []Record{{Key: tx.MakeKey(0, 17), Value: make([]byte, 64)}}}
}

func benchRequest(id tx.TxnID) *tx.Request {
	keys := []tx.Key{tx.MakeKey(0, 17), tx.MakeKey(0, 400_003), tx.MakeKey(0, 900_001)}
	req := tx.NewRequest(id, &tx.CounterProc{Reads: keys, Writes: keys, Payload: 64})
	req.Client, req.ClientSeq, req.SubmitTime = 0, uint64(id), time.Unix(1_700_000_000, 0)
	return req
}

func benchDeliver(txns int) Message {
	batch := &tx.Batch{Seq: 1}
	for i := 0; i < txns; i++ {
		batch.Txns = append(batch.Txns, benchRequest(tx.TxnID(i+1)))
	}
	return Message{From: leaderNode, To: 0, Type: MsgSeqDeliver, Seq: 1, Link: 1, Inc: 1, Batch: batch}
}

func benchLinkAck() Message {
	return Message{From: 0, To: 1, Type: MsgLinkAck, Link: 41, Inc: 1}
}

func benchTxnDone() Message {
	return Message{From: 2, To: 0, Type: MsgTxnDone, Link: 9, Inc: 1,
		Payload: AppendClientSeqs(nil, []uint64{1201, 1203, 1210})}
}

func taggedRecordPush() Message {
	return Message{From: 1, To: 0, Type: MsgRecordPush, Link: 4, Inc: 1, Records: []Record{
		{Key: tx.MakeKey(0, 17), Value: make([]byte, 64), Txn: 7},
		{Key: tx.MakeKey(0, 400_003), Value: make([]byte, 64), Txn: 8},
	}}
}

func ackedRecordPush() Message {
	m := benchRecordPush()
	m.Ack, m.AckInc = 41, 1
	return m
}

func mustEncode(t testing.TB, m Message) []byte {
	t.Helper()
	b, err := appendMessage(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameMessage compares two messages the way the format promises: exactly,
// except that SubmitTime keeps only its instant (no monotonic reading or
// location) and the unexported caches of a request are compared through
// their accessors.
func sameMessage(t testing.TB, got, want Message) {
	t.Helper()
	gb, wb := got.Batch, want.Batch
	got.Batch, want.Batch = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v\nwant    %+v", got, want)
	}
	if (gb == nil) != (wb == nil) {
		t.Fatalf("decoded batch %v, want %v", gb, wb)
	}
	if wb == nil {
		return
	}
	if gb.Seq != wb.Seq || len(gb.Txns) != len(wb.Txns) {
		t.Fatalf("decoded batch seq %d with %d txns, want seq %d with %d", gb.Seq, len(gb.Txns), wb.Seq, len(wb.Txns))
	}
	for i, w := range wb.Txns {
		g := gb.Txns[i]
		if g.ID != w.ID || g.Client != w.Client || g.ClientSeq != w.ClientSeq ||
			!g.SubmitTime.Equal(w.SubmitTime) || g.SubmitTime.IsZero() != w.SubmitTime.IsZero() ||
			!reflect.DeepEqual(g.Proc, w.Proc) ||
			!reflect.DeepEqual(g.ReadSet(), w.ReadSet()) || !reflect.DeepEqual(g.WriteSet(), w.WriteSet()) {
			t.Fatalf("txn %d decoded as %+v (proc %+v)\nwant %+v (proc %+v)", i, g, g.Proc, w, w.Proc)
		}
	}
}

// goldenFrames are the frame shapes above, checked in as hex under
// testdata/golden.
var goldenFrames = map[string]func() Message{
	"record-push":        benchRecordPush,
	"deliver-25":         func() Message { return benchDeliver(25) },
	"link-ack":           benchLinkAck,
	"txn-done":           benchTxnDone,
	"record-push-tagged": taggedRecordPush,
	"record-push-acked":  ackedRecordPush,
}

// TestGoldenFrames pins the shapes byte for byte. Journals persist
// these bytes and mixed-build clusters are told apart only by wireVersion
// and the journal magic, so a change that moves any of them must bump both
// (docs/CLUSTER.md, "Wire and journal format").
func TestGoldenFrames(t *testing.T) {
	for name, build := range goldenFrames {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".hex"))
		if err != nil {
			t.Fatal(err)
		}
		m := build()
		frame, err := appendFrame(nil, &m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hex.EncodeToString(frame); got != strings.TrimSpace(string(want)) {
			t.Errorf("%s: the encoded frame changed (%d bytes now):\n%s", name, len(frame), got)
		}
	}
}

func TestMessageRoundTripEdgeCases(t *testing.T) {
	for name, m := range map[string]Message{
		"zero":        {},
		"record-push": benchRecordPush(),
		"deliver":     benchDeliver(25),
		"link-ack":    benchLinkAck(),
		"txn-done":    benchTxnDone(),
		"tagged push": taggedRecordPush(),
		"acked push":  ackedRecordPush(),
		"max fields": {From: math.MinInt64, To: math.MaxInt64, Type: 255, Txn: math.MaxUint64, Seq: math.MaxUint64,
			Epoch: math.MaxUint64, Link: math.MaxUint64, Inc: math.MaxUint64, Ack: math.MaxUint32, AckInc: math.MaxUint16},
		"ack only in AckInc": {Type: MsgRecordPush, Link: 2, AckInc: 3},
		"one tag of several": {Type: MsgRecordPush, Records: []Record{{Key: 1}, {Key: 2, Txn: 5}}},
		"empty batch":        {Type: MsgSeqReplicate, Batch: &tx.Batch{Seq: 3}},
		"every procedure": {Type: MsgSeqForward, From: leaderNode, Batch: &tx.Batch{Txns: []*tx.Request{
			tx.NewRequest(1, &tx.CounterProc{Reads: []tx.Key{9, 3, 9}, Writes: []tx.Key{3}, Payload: 8}),
			tx.NewRequest(2, &tx.MigrationProc{Keys: []tx.Key{5, 4}, To: 2}),
			tx.NewRequest(3, &tx.ProvisionProc{Add: []tx.NodeID{3}, Remove: []tx.NodeID{leaderNode}}),
		}}},
	} {
		got, err := decodeMessage(mustEncode(t, m))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameMessage(t, got, m)
	}

	// Empty and nil slices are one value on the wire and decode as nil.
	empty := Message{Records: []Record{}, Payload: []byte{}}
	got, err := decodeMessage(mustEncode(t, empty))
	if err != nil {
		t.Fatal(err)
	}
	if got.Records != nil || got.Payload != nil {
		t.Fatalf("empty slices decoded as %#v / %#v, want nil", got.Records, got.Payload)
	}
	withEmptyValue := Message{Records: []Record{{Key: 1, Value: []byte{}}}}
	if got, err = decodeMessage(mustEncode(t, withEmptyValue)); err != nil || got.Records[0].Value != nil {
		t.Fatalf("empty record value decoded as %#v (%v), want nil", got.Records, err)
	}
}

// TestMessageSize pins Message at 120 bytes. The emulation's transport
// holds Messages by value in its preallocated channels, so a wider Message
// costs every cluster set-up and every hop; the piggybacked ack lives in
// the padding after Type for that reason.
func TestMessageSize(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n != 120 {
		t.Fatalf("Message is %d bytes, want 120", n)
	}
}

func TestEncodeRefusesClosureProcedures(t *testing.T) {
	m := Message{Type: MsgSeqForward, Batch: &tx.Batch{Txns: []*tx.Request{
		tx.NewRequest(1, &tx.FuncProc{Fn: func(tx.ExecCtx) {}}),
	}}}
	prefix := []byte("kept")
	b, err := appendFrame(prefix, &m)
	if err == nil {
		t.Fatal("a batch holding a FuncProc was framed")
	}
	if string(b) != "kept" {
		t.Fatalf("failed encode left %q in the buffer", b)
	}
}

// buildMessage derives a message from fuzz-chosen scalars: sizes come from
// the small integers, contents from a PRNG, and the 64-bit extremes from wide
// (max-uint64 fields) and node (negative node ids). The seed decides whether
// the records carry transaction tags and whether an ack rides along.
func buildMessage(seed int64, typ uint8, node int64, wide uint64, submit int64, nRecs, valLen, payloadLen, proc, nTxns, nKeys uint8) Message {
	rng := rand.New(rand.NewSource(seed))
	bytesOf := func(n uint8) []byte {
		if n == 0 {
			return nil
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	keys := func() []tx.Key {
		if nKeys == 0 {
			return nil
		}
		ks := make([]tx.Key, nKeys)
		for i := range ks {
			ks[i] = tx.Key(rng.Uint64() >> (rng.Intn(8) * 8)) // duplicates and disorder included
		}
		return ks
	}
	m := Message{
		From: tx.NodeID(node), To: tx.NodeID(-node), Type: MsgType(typ),
		Txn: tx.TxnID(wide), Seq: wide ^ 1, Epoch: wide >> 1, Link: wide, Inc: ^wide,
		Payload: bytesOf(payloadLen),
	}
	for i := 0; i < int(nRecs); i++ {
		m.Records = append(m.Records, Record{Key: tx.Key(rng.Uint64()), Value: bytesOf(valLen)})
		if seed%3 == 1 {
			m.Records[i].Txn = tx.TxnID(wide - uint64(i))
		}
	}
	if seed%5 == 2 {
		m.Ack, m.AckInc = uint32(wide>>2), uint16(wide)
	}
	if proc%4 == 0 {
		return m
	}
	m.Batch = &tx.Batch{Seq: wide}
	for i := 0; i < int(nTxns); i++ {
		var p tx.Procedure
		switch proc % 4 {
		case 1:
			p = &tx.CounterProc{Reads: keys(), Writes: keys(), Payload: max(int(valLen)-1, 0), Abort: payloadLen%2 == 1}
		case 2:
			p = &tx.MigrationProc{Keys: keys(), To: tx.NodeID(node)}
		case 3:
			p = &tx.ProvisionProc{Add: []tx.NodeID{tx.NodeID(node)}}
		}
		req := tx.NewRequest(tx.TxnID(wide-uint64(i)), p)
		req.Client, req.ClientSeq = tx.NodeID(node), wide
		if submit != 0 {
			req.SubmitTime = time.Unix(0, submit)
		}
		m.Batch.Txns = append(m.Batch.Txns, req)
	}
	return m
}

// FuzzMessageRoundTrip: decode(encode(m)) == m for every message the data
// plane can build. The checked-in corpus (testdata/fuzz) holds the
// benchmark's four frame shapes; f.Add covers the edges.
func FuzzMessageRoundTrip(f *testing.F) {
	// every MsgType with a small batch of each procedure
	for typ := uint8(0); typ <= uint8(MsgTxnDone); typ++ {
		f.Add(int64(typ), typ, int64(typ), uint64(typ), int64(1), uint8(1), uint8(8), uint8(3), typ, uint8(2), uint8(3))
	}
	f.Add(int64(1), uint8(MsgSeqDeliver), int64(leaderNode), uint64(math.MaxUint64), int64(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(25), uint8(3))
	f.Add(int64(2), uint8(MsgControl), int64(math.MinInt64), uint64(0), int64(-1), uint8(255), uint8(255), uint8(255), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(MsgSeqReplicate), int64(-1), uint64(1)<<63, int64(math.MaxInt64), uint8(0), uint8(0), uint8(0), uint8(2), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, typ uint8, node int64, wide uint64, submit int64, nRecs, valLen, payloadLen, proc, nTxns, nKeys uint8) {
		m := buildMessage(seed, typ, node, wide, submit, nRecs, valLen, payloadLen, proc, nTxns, nKeys)
		wire := mustEncode(t, m)
		got, err := decodeMessage(wire)
		if err != nil {
			t.Fatalf("decode of an encoded message: %v", err)
		}
		sameMessage(t, got, m)
		if again := mustEncode(t, got); string(again) != string(wire) {
			t.Fatalf("re-encoding the decoded message changed its bytes")
		}
	})
}

// FuzzDecodeMessage: arbitrary bytes never panic, and whatever decodes was
// sized by the input — every count is checked against the bytes that
// remain before anything is allocated for it, so no slice can hold more
// elements than the input has room for.
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustEncode(f, benchDeliver(1))[:80])
	hostile := mustEncode(f, Message{})
	f.Add(append(hostile[:58], 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) // 2^40 records in 6 bytes
	f.Add(append(hostile[:57], flagTagged, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := decodeMessage(p)
		if err != nil {
			return
		}
		if len(m.Records)*minRecordLen > len(p) || len(m.Payload) > len(p) {
			t.Fatalf("%d records and a %d-byte payload decoded from %d bytes", len(m.Records), len(m.Payload), len(p))
		}
		if m.Batch != nil {
			keys := 0
			for _, r := range m.Batch.Txns {
				keys += len(r.Proc.ReadSet()) + len(r.Proc.WriteSet())
			}
			if keys*8 > len(p) {
				t.Fatalf("%d keys decoded from %d bytes", keys, len(p))
			}
		}
		// Whatever decodes is a message this build could have sent: it
		// re-encodes (no longer than the input; varints may have been
		// padded) to bytes that decode to the same message.
		wire := mustEncode(t, m)
		if len(wire) > len(p) {
			t.Fatalf("a %d-byte input re-encodes to %d bytes", len(p), len(wire))
		}
		again, err := decodeMessage(wire)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		sameMessage(t, again, m)
	})
}

// TestEncodeIntoReusedBufferDoesNotAllocate is the send path's contract:
// a connection (or the journal) encodes every message into the buffer the
// previous one left behind.
func TestEncodeIntoReusedBufferDoesNotAllocate(t *testing.T) {
	for name, m := range map[string]Message{"deliver": benchDeliver(25), "record-push": benchRecordPush()} {
		buf, err := appendFrame(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf, err = appendFrame(buf[:0], &m)
		})
		if err != nil || allocs != 0 {
			t.Errorf("%s: %v allocations per encode into a reused buffer (err %v), want 0", name, allocs, err)
		}
	}
}

// TestDecodeAllocationsAreBounded states what a decoded 25-transaction
// deliver costs: per request the Request, its procedure, the two declared
// key lists and the two normalized caches (6), plus the batch and its
// slice. A regression to per-field or reflective decoding would multiply
// it.
func TestDecodeAllocationsAreBounded(t *testing.T) {
	wire := mustEncode(t, benchDeliver(25))
	const want = 25*6 + 2
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeMessage(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > want {
		t.Errorf("decoding a 25-txn deliver allocates %v times, want at most %d", allocs, want)
	}
	push := mustEncode(t, benchRecordPush())
	if allocs := testing.AllocsPerRun(100, func() { decodeMessage(push) }); allocs > 2 {
		t.Errorf("decoding a record push allocates %v times, want at most 2 (records, value)", allocs)
	}
}

var benchSink int

func BenchmarkEncodeDeliver(b *testing.B) {
	m := benchDeliver(25)
	buf, err := appendFrame(nil, &m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = appendFrame(buf[:0], &m)
	}
	benchSink = len(buf)
}

func BenchmarkDecodeDeliver(b *testing.B) {
	wire := mustEncode(b, benchDeliver(25))
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := decodeMessage(wire)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = len(m.Batch.Txns)
	}
}
